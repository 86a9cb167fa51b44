// Package serve is the topology-as-a-service layer: canonicalized family
// parameters, cached topology artifacts (internal/cache), the shared
// machine-readable metrics document used by both the daemon's /v1/metrics
// handler and `ipgtool -json`, and the HTTP server behind cmd/ipgd.
package serve

import (
	"fmt"
	"net/url"
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

// Provided is the set of explicitly supplied parameter names as a
// bitmask — the allocation-free form of Check's map argument, used by
// the serving hot path (ParamsFromRawQuery + CheckProvided).
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

// Check validates p.  provided names the parameters the caller explicitly
// set ("l", "nucleus", "dim", "logm", "k", "side", "band"); a provided
// parameter the family does not consume is an error.  Pass nil to skip
// the applicability check and validate ranges only.
func (p Params) Check(provided map[string]bool) error {
	if _, err := lookupFamily(p.Net); err != nil {
		return err
	}
	var prov Provided
	for name := range provided {
		bit, ok := provBit(name)
		if !ok {
			return fmt.Errorf("parameter %q does not apply to net %q", name, p.Net)
		}
		prov |= bit
	}
	return p.CheckProvided(prov)
}

// CheckProvided is Check with the provided set as a bitmask: the
// allocation-free validation the raw-query request path uses.
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

// ParamsFromQuery decodes family parameters from an HTTP query, applying
// the shared defaults, and returns the set of explicitly provided names
// for Check.  Unknown query keys are left to the caller (handlers accept
// extra per-endpoint keys).
func ParamsFromQuery(q url.Values) (Params, map[string]bool, error) {
	p := Defaults()
	provided := map[string]bool{}
	if v := q.Get("net"); v != "" {
		p.Net = strings.ToLower(strings.TrimSpace(v))
	}
	for _, pn := range provNames {
		v := q.Get(pn.name)
		if v == "" {
			continue
		}
		if pn.bit == ProvNucleus {
			p.Nucleus = strings.ToLower(strings.TrimSpace(v))
		} else {
			n, err := strconv.Atoi(v)
			if err != nil {
				return p, provided, fmt.Errorf("parameter %q: bad integer %q", pn.name, v)
			}
			*p.intParam(pn.bit) = n
		}
		provided[pn.name] = true
	}
	return p, provided, nil
}

// RawQueryNeedsEscape reports whether a raw query string contains
// characters the zero-allocation scanners cannot decode in place
// (%-escapes, '+'-encoded spaces, or legacy ';' separators).  Requests
// carrying them take the url.Values path instead; family parameter
// values never need escaping, so in practice the fast path covers all
// production traffic.
func RawQueryNeedsEscape(raw string) bool {
	return strings.ContainsAny(raw, "%+;")
}

// ParamsFromRawQuery decodes family parameters by scanning the raw query
// string in place — ParamsFromQuery without the url.Values map or the
// provided-set map, for the serving hot path.  Callers must route
// queries for which RawQueryNeedsEscape is true through ParamsFromQuery;
// for all other queries the two decoders agree exactly (url.Values.Get
// semantics: the first occurrence of a key wins, an empty value counts
// as unset).
func ParamsFromRawQuery(raw string) (Params, Provided, error) {
	p := Defaults()
	var prov, seen Provided
	seenNet := false
	for len(raw) > 0 {
		var pair string
		if i := strings.IndexByte(raw, '&'); i >= 0 {
			pair, raw = raw[:i], raw[i+1:]
		} else {
			pair, raw = raw, ""
		}
		if pair == "" {
			continue
		}
		key, val, _ := strings.Cut(pair, "=")
		if key == "net" {
			if seenNet {
				continue
			}
			seenNet = true
			if val != "" {
				p.Net = strings.ToLower(strings.TrimSpace(val))
			}
			continue
		}
		bit, ok := provBit(key)
		if !ok || seen&bit != 0 {
			continue // unknown keys are per-endpoint extras; first value wins
		}
		seen |= bit
		if val == "" {
			continue
		}
		if bit == ProvNucleus {
			p.Nucleus = strings.ToLower(strings.TrimSpace(val))
			prov |= bit
			continue
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return p, prov, fmt.Errorf("parameter %q: bad integer %q", key, val)
		}
		*p.intParam(bit) = n
		prov |= bit
	}
	return p, prov, nil
}
