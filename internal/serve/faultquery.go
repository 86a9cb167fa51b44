package serve

import (
	"strconv"

	"ipg/internal/fault"
)

// faultQuery is the decoded fault block of a request: ?faults=K selects K
// failures, ?fmode= picks the model (node|link|chip|adversarial, default
// node), ?fseed= fixes the sample, and ?frouting= (aware|oblivious,
// default aware, /v1/simulate only) selects how the degraded network
// routes around the damage.
type faultQuery struct {
	Spec    fault.Spec
	Routing string
}

// parseFaultQuery reads the fault block of a decoded query.  It returns
// nil when the query carries no fault parameter, so fault-free requests
// pay nothing.
func parseFaultQuery(q *query) (*faultQuery, error) {
	faults, fmode, fseed, routing := q.vals[qFaults], q.vals[qFMode], q.vals[qFSeed], q.vals[qFRouting]
	if faults == "" && fmode == "" && fseed == "" && routing == "" {
		return nil, nil
	}
	count := 0
	if faults != "" {
		n, err := strconv.Atoi(faults)
		if err != nil {
			return nil, badRequest("parameter %q: bad integer %q", "faults", faults)
		}
		count = n
	}
	if count < 0 {
		return nil, badRequest("parameter \"faults\" must be >= 0, got %d", count)
	}
	mode, err := fault.ParseMode(fmode)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	seed := 1
	if fseed != "" {
		n, err := strconv.Atoi(fseed)
		if err != nil {
			return nil, badRequest("parameter %q: bad integer %q", "fseed", fseed)
		}
		seed = n
	}
	if routing == "" {
		routing = "aware"
	}
	if routing != "aware" && routing != "oblivious" {
		return nil, badRequest("parameter %q must be aware or oblivious, got %q", "frouting", routing)
	}
	return &faultQuery{
		Spec:    fault.Spec{Mode: mode, Count: count, Seed: int64(seed)},
		Routing: routing,
	}, nil
}
