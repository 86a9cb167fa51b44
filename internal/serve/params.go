// Package serve is the topology-as-a-service layer: canonicalized family
// parameters, cached topology artifacts (internal/cache), the shared
// machine-readable metrics document used by both the daemon's /v1/metrics
// handler and `ipgtool -json`, and the HTTP server behind cmd/ipgd.
package serve

import (
	"fmt"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"

	"ipg/internal/nucleus"
)

// Params identifies one network family instance.  Only the fields its
// family table entry consumes are meaningful; Key() canonicalizes exactly
// those, so HSN(3,Q4) requested with a stray default dim and HSN(3,Q4)
// requested bare hash to the same cache entry.
type Params struct {
	Net     string // family name, lowercase
	L       int    // super-symbols (super-IPG families)
	Nucleus string // nucleus spec, e.g. "q4" or "ghc:4,4"
	Dim     int    // dimension (hypercube/ccc/butterfly)
	LogM    int    // log2 nodes per chip (hypercube)
	K       int    // radix (torus)
	Side    int    // chip side (torus)
	Band    int    // level band width (butterfly)
}

// Defaults mirror the ipgtool flag defaults, so the daemon and the CLI
// agree on what an unspecified parameter means.
func Defaults() Params {
	return Params{Net: "hsn", L: 3, Nucleus: "q2", Dim: 8, LogM: 2, K: 8, Side: 2, Band: 2}
}

// Provided is the set of explicitly supplied family parameters as a
// bitmask, as ParamsFromRawQuery decodes it and CheckProvided reads it.
type Provided uint8

const (
	ProvL Provided = 1 << iota
	ProvNucleus
	ProvDim
	ProvLogM
	ProvK
	ProvSide
	ProvBand
)

// provNames orders the parameter bits for error messages and flags, with
// each parameter's flag help text.
var provNames = [...]struct {
	name  string
	bit   Provided
	usage string
}{
	{"l", ProvL, "number of super-symbols"},
	{"nucleus", ProvNucleus, "nucleus: qK | fqK | kM | cM | sN | ghc:m1,m2,..."},
	{"dim", ProvDim, "dimension"},
	{"logm", ProvLogM, "log2 nodes per chip"},
	{"k", ProvK, "radix"},
	{"side", ProvSide, "chip side"},
	{"band", ProvBand, "level band width"},
}

// provBit maps a parameter name to its bit.
func provBit(name string) (Provided, bool) {
	for _, pn := range provNames {
		if pn.name == name {
			return pn.bit, true
		}
	}
	return 0, false
}

// CheckProvided validates p.  prov names the parameters the caller
// explicitly set; a provided parameter the family does not consume is an
// error.  Pass 0 to validate ranges only.
func (p Params) CheckProvided(prov Provided) error {
	f, err := lookupFamily(p.Net)
	if err != nil {
		return err
	}
	if bad := prov &^ f.params; bad != 0 {
		for _, pn := range provNames {
			if bad&pn.bit != 0 {
				return fmt.Errorf("parameter %q does not apply to net %q", pn.name, p.Net)
			}
		}
	}
	return f.check(p)
}

// nucCache memoizes nucleus.Parse results for CheckProvided: the hot
// serving path re-validates the same handful of nucleus specs on every
// request, and Parse allocates.  Bounded so unbounded distinct (mostly
// invalid) specs from a querystring fuzzer cannot grow it without limit;
// past the bound new specs are parsed uncached.  A plain RWMutex-guarded
// map, not sync.Map: storing a string key in sync.Map would box it and
// allocate on the read path.
var nucCache = struct {
	sync.RWMutex
	m map[string]nucParseResult
}{m: make(map[string]nucParseResult)}

type nucParseResult struct {
	nuc *nucleus.Nucleus
	err error
}

const nucCacheMax = 4096

func parseNucleusCached(spec string) (*nucleus.Nucleus, error) {
	nucCache.RLock()
	r, ok := nucCache.m[spec]
	nucCache.RUnlock()
	if ok {
		return r.nuc, r.err
	}
	nuc, err := nucleus.Parse(spec)
	nucCache.Lock()
	if len(nucCache.m) < nucCacheMax {
		nucCache.m[spec] = nucParseResult{nuc: nuc, err: err}
	}
	nucCache.Unlock()
	return nuc, err
}

// Key returns the canonical cache key: the family plus exactly the
// parameters it consumes, in fixed order.
func (p Params) Key() string { return string(p.AppendKey(nil)) }

// AppendKey appends the canonical cache key to dst and returns the
// extended slice — Key without the string allocation, so the warm
// request path can probe the cache with a pooled key buffer.  The bytes
// are identical to Key's.
func (p Params) AppendKey(dst []byte) []byte {
	var allowed Provided
	if f := familyTable[p.Net]; f != nil {
		allowed = f.params
	}
	dst = append(dst, p.Net...)
	for _, pn := range provNames {
		if allowed&pn.bit == 0 {
			continue
		}
		dst = append(dst, '|')
		dst = append(dst, pn.name...)
		dst = append(dst, '=')
		if pn.bit == ProvNucleus {
			// ToLower returns its input unchanged (no copy) when the spec
			// is already lowercase, which request-decoded params always are.
			dst = append(dst, strings.ToLower(strings.TrimSpace(p.Nucleus))...)
		} else {
			dst = strconv.AppendInt(dst, int64(*p.intParam(pn.bit)), 10)
		}
	}
	return dst
}

// intParam returns the field of p that the integer parameter bit sets,
// or nil for the nucleus.
func (p *Params) intParam(bit Provided) *int {
	switch bit {
	case ProvL:
		return &p.L
	case ProvDim:
		return &p.Dim
	case ProvLogM:
		return &p.LogM
	case ProvK:
		return &p.K
	case ProvSide:
		return &p.Side
	case ProvBand:
		return &p.Band
	}
	return nil
}

// The endpoint parameters: the knobs a handler reads beside the family
// parameters, as indexes into query.vals.
const (
	qSrc = iota
	qDst
	qMultipath
	qDiameter
	qWorkload
	qRate
	qChipCap
	qSeed
	qWarmup
	qMeasure
	qFaults
	qFMode
	qFSeed
	qFRouting
	qKey
	numEndpointParams
)

// endpointParams names the endpoint parameters.
var endpointParams = [numEndpointParams]string{
	qSrc: "src", qDst: "dst", qMultipath: "multipath", qDiameter: "diameter",
	qWorkload: "workload", qRate: "rate", qChipCap: "chipcap", qSeed: "seed",
	qWarmup: "warmup", qMeasure: "measure", qFaults: "faults", qFMode: "fmode",
	qFSeed: "fseed", qFRouting: "frouting", qKey: "key",
}

// query is one request's query string, decoded in a single pass: the
// family view (Params, the Provided set and the first bad family integer)
// and the first value of each endpoint parameter, "" when absent.
type query struct {
	p    Params
	prov Provided
	err  error
	vals [numEndpointParams]string
}

// decodeQuery decodes a raw query string in one pass, as url.ParseQuery
// read through Get does: pairs split on '&', a pair holding ';' or a bad
// escape is dropped, the first occurrence of each key wins, and an empty
// value counts as unset.  Only pairs carrying '%' or '+' are unescaped,
// so an escape-free query decodes without allocating.  A bad family
// integer is recorded in q.err (the first in query order) and the pass
// goes on, so the endpoint parameters are decoded either way.
func decodeQuery(raw string) query {
	q := query{p: Defaults()}
	var seenNet bool
	var seenFam Provided
	var seenEnd uint16
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue
		}
		key, val, _ := strings.Cut(pair, "=")
		if strings.ContainsAny(pair, "%+") {
			k, kerr := url.QueryUnescape(key)
			v, verr := url.QueryUnescape(val)
			if kerr != nil || verr != nil {
				continue
			}
			key, val = k, v
		}
		if key == "net" {
			if !seenNet && val != "" {
				q.p.Net = strings.ToLower(strings.TrimSpace(val))
			}
			seenNet = true
			continue
		}
		if bit, ok := provBit(key); ok {
			first := seenFam&bit == 0
			seenFam |= bit
			if !first || val == "" {
				continue
			}
			if bit == ProvNucleus {
				q.p.Nucleus = strings.ToLower(strings.TrimSpace(val))
				q.prov |= bit
			} else if n, err := strconv.Atoi(val); err != nil {
				if q.err == nil {
					q.err = fmt.Errorf("parameter %q: bad integer %q", key, val)
				}
			} else {
				*q.p.intParam(bit) = n
				q.prov |= bit
			}
			continue
		}
		if i := slices.Index(endpointParams[:], key); i >= 0 && seenEnd&(1<<i) == 0 {
			seenEnd |= 1 << i
			q.vals[i] = val
		}
	}
	return q
}

// ParamsFromRawQuery decodes the family parameters of a raw query string:
// the family view of decodeQuery, the one pass every handler runs.  The
// error names the first bad integer in query order; CheckProvided
// validates the rest.
func ParamsFromRawQuery(raw string) (Params, Provided, error) {
	q := decodeQuery(raw)
	return q.p, q.prov, q.err
}
