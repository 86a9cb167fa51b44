// Package ascend implements the ascend/descend algorithm framework of
// Section 3.2 of the paper (Theorem 3.5, Corollaries 3.6 and 3.7) for
// super-IPGs, together with the classic algorithms in that class: FFT,
// bitonic sorting, all-reduce, and one-to-all broadcast.
//
// An ascend algorithm applies an operation to data items whose (virtual)
// addresses differ in bit 0, then bit 1, ..., up to bit log2(N)-1; a
// descend algorithm runs the bits in the opposite order.  On a super-IPG
// the address space factors into l groups of log2(M) bits.  The engine
// brings each group to the front in turn (using the family's transition
// words), performs the nucleus exchanges there, and finally restores the
// original arrangement, moving the data physically through the network
// exactly as the paper's algorithm prescribes.
//
// The engine tracks each datum's virtual address and verifies at every
// exchange that paired items differ in exactly one address bit, and at the
// end that every datum has returned to its home node — a full end-to-end
// check of the movement schedule.
package ascend

//lint:file-ignore ctxflow one ascend pass runs dim (= log2 N) rounds of O(N) work on graphs bounded by ipg.MaxNodes, driven by the CLI experiment harness rather than a request handler

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"ipg/internal/superipg"
	"ipg/internal/topo"
)

// BitOp is the per-pair operation of an ascend/descend step: it receives
// the global bit index, the two virtual addresses (addr0 has the bit clear,
// addr1 has it set) and the two values, and returns the new values.
type BitOp[T any] func(bit, addr0, addr1 int, v0, v1 T) (T, T)

// Stats reports the communication structure of a run, in the paper's
// accounting: one communication step per super-generator application and
// one per nucleus dimension exchange (the SDC model lets a node use all
// links of one dimension at once), plus radix-1 computation steps per
// exchange.
type Stats struct {
	SuperSteps int // super-generator applications
	Exchanges  int // nucleus dimension exchanges
	CommSteps  int // SuperSteps + Exchanges
	CompSteps  int // sum of (radix-1) over exchanges
}

// DimRef identifies one global dimension: nucleus dimension Dim (0-based)
// of group Group (1-based).
type DimRef struct {
	Group int
	Dim   int
}

// Pass is a sequence of global dimensions to process, with the bit order
// inside multi-bit (radix > 2) dimensions.
type Pass struct {
	Dims     []DimRef
	DescBits bool
	// NoFinalRestore skips the final super-generator word that returns
	// every datum to its home node, implementing the paper's remark after
	// Corollary 3.7: "if reordering of the results is not required, then
	// the number of communication steps can be further reduced".  The
	// results stay where the last round left them; RunPlaced returns the
	// final placement.
	NoFinalRestore bool
}

// AscendPass returns the full ascend pass: groups 1..l, nucleus dimensions
// in ascending order, bits ascending.
func AscendPass(w *superipg.Network) Pass {
	var dims []DimRef
	for g := 1; g <= w.L; g++ {
		for d := 0; d < w.Nuc.NumDims(); d++ {
			dims = append(dims, DimRef{Group: g, Dim: d})
		}
	}
	return Pass{Dims: dims}
}

// DescendPass returns the full descend pass: groups l..1, dimensions and
// bits descending.
func DescendPass(w *superipg.Network) Pass {
	var dims []DimRef
	for g := w.L; g >= 1; g-- {
		for d := w.Nuc.NumDims() - 1; d >= 0; d-- {
			dims = append(dims, DimRef{Group: g, Dim: d})
		}
	}
	return Pass{Dims: dims, DescBits: true}
}

// BitsPass maps a sequence of global bit indices to a Pass.  It requires
// every nucleus dimension to be binary (radix 2).
func BitsPass(w *superipg.Network, bitSeq []int) (Pass, error) {
	nd := w.Nuc.NumDims()
	for d := 0; d < nd; d++ {
		if w.Nuc.Dims[d].Radix != 2 {
			return Pass{}, fmt.Errorf("ascend: BitsPass requires binary dimensions; %s dim %d has radix %d",
				w.Nuc.Name, d, w.Nuc.Dims[d].Radix)
		}
	}
	total := nd * w.L
	var dims []DimRef
	for _, b := range bitSeq {
		if b < 0 || b >= total {
			return Pass{}, fmt.Errorf("ascend: bit %d out of range 0..%d", b, total-1)
		}
		dims = append(dims, DimRef{Group: b/nd + 1, Dim: b % nd})
	}
	return Pass{Dims: dims}, nil
}

// Runner executes passes over a materialized super-IPG, whose node ids
// are addresses: node v is the home node of the datum with address v.
type Runner[T any] struct {
	W *superipg.Network
	G *superipg.Graph

	// ports is the port-labelled view of G (port gi = generator gi); the
	// data-movement loop consults only this interface.
	ports   topo.Ported
	logM    int
	workers int
}

// NewRunner prepares a runner; it requires a power-of-two nucleus.
func NewRunner[T any](w *superipg.Network, g *superipg.Graph) (*Runner[T], error) {
	logM, err := w.Nuc.TotalBits()
	if err != nil {
		return nil, err
	}
	return &Runner[T]{W: w, G: g, ports: g, logM: logM, workers: runtime.GOMAXPROCS(0)}, nil
}

// LogN returns log2 of the network size.
func (r *Runner[T]) LogN() int { return r.logM * r.W.L }

// Run executes the pass on a copy of data (indexed by node id) and returns
// the resulting data (indexed by node id again: every datum is moved back
// to its home node), along with the communication statistics.
func (r *Runner[T]) Run(data []T, pass Pass, op BitOp[T]) ([]T, Stats, error) {
	out, placement, st, err := r.RunPlaced(data, pass, op)
	if err != nil {
		return nil, st, err
	}
	if pass.NoFinalRestore {
		// Re-index by home address on behalf of the caller (a logical,
		// zero-communication view of the displaced results).
		byNode := make([]T, len(out))
		for v := range out {
			byNode[placement[v]] = out[v]
		}
		return byNode, st, nil
	}
	return out, st, nil
}

// RunPlaced is Run without the convenience re-indexing: it returns the
// data as physically placed (placement[v] = virtual address of the datum
// at node v).  With NoFinalRestore the placement is whatever arrangement
// the last round left; otherwise it is the identity.
func (r *Runner[T]) RunPlaced(data []T, pass Pass, op BitOp[T]) ([]T, []int, Stats, error) {
	g, w := r.G, r.W
	if len(data) != g.N() {
		return nil, nil, Stats{}, fmt.Errorf("ascend: data length %d != %d nodes", len(data), g.N())
	}
	cur := make([]T, len(data))
	copy(cur, data)
	vaddr := make([]int, len(data))
	for v := range vaddr {
		vaddr[v] = v
	}
	tmpT := make([]T, len(data))
	tmpA := make([]int, len(data))

	var st Stats
	front := 1
	applyWord := func(word []int) {
		for _, gi := range word {
			// Generator action is a bijection on nodes, so concurrent
			// chunks write disjoint destinations.
			r.parallelBlocks(g.N(), func(lo, hi int) {
				for v := lo; v < hi; v++ {
					nb := r.ports.Port(v, gi)
					tmpT[nb] = cur[v]
					tmpA[nb] = vaddr[v]
				}
			})
			cur, tmpT = tmpT, cur
			vaddr, tmpA = tmpA, vaddr
			st.SuperSteps++
		}
	}

	for _, dr := range pass.Dims {
		if dr.Group < 1 || dr.Group > w.L || dr.Dim < 0 || dr.Dim >= w.Nuc.NumDims() {
			return nil, nil, st, fmt.Errorf("ascend: bad dimension reference %+v", dr)
		}
		if dr.Group != front {
			applyWord(w.TransitionWord(front, dr.Group))
			front = dr.Group
		}
		if err := r.exchange(cur, vaddr, dr.Dim, pass.DescBits, op, &st); err != nil {
			return nil, nil, st, err
		}
	}
	if !pass.NoFinalRestore {
		applyWord(w.FinalWord(front))
		for v := 0; v < g.N(); v++ {
			if vaddr[v] != v {
				return nil, nil, st, fmt.Errorf("ascend: datum with address %d ended at node %d", vaddr[v], v)
			}
		}
	} else {
		// The placement must still be a bijection onto the address space.
		seen := make([]bool, g.N())
		for _, a := range vaddr {
			if a < 0 || a >= g.N() || seen[a] {
				return nil, nil, st, fmt.Errorf("ascend: displaced placement is not a bijection (address %d)", a)
			}
			seen[a] = true
		}
	}
	st.CommSteps = st.SuperSteps + st.Exchanges
	return cur, vaddr, st, nil
}

// exchange performs the nucleus dimension-d exchange in the front group:
// the radix items of every dimension-d subgroup run a butterfly over the
// dimension's bits.  A subgroup is the radix nodes whose addresses differ
// only in the dimension-d digit of the front group's nucleus address,
// which weighs stride, the product of the lower dimensions' radices.
// Subgroups are independent, so they execute on a worker pool.
func (r *Runner[T]) exchange(cur []T, vaddr []int, d int, descBits bool, op BitOp[T], st *Stats) error {
	nuc := r.W.Nuc
	radix := nuc.Dims[d].Radix
	nbits, err := nuc.DimBits(d)
	if err != nil {
		return err
	}
	stride := 1
	for _, lower := range nuc.Dims[:d] {
		stride *= lower.Radix
	}
	nblocks := r.G.N() / radix
	var firstErr error
	var errMu sync.Mutex
	r.parallelBlocks(nblocks, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			// Block blk's first node has digit 0 in dimension d.
			base := blk/stride*stride*radix + blk%stride
			for bi := 0; bi < nbits; bi++ {
				b := bi
				if descBits {
					b = nbits - 1 - bi
				}
				for x := 0; x < radix; x++ {
					if x&(1<<b) != 0 {
						continue
					}
					y := x | 1<<b
					va, vb := base+x*stride, base+y*stride
					a0, a1 := vaddr[va], vaddr[vb]
					if a0&^a1 != 0 || bits.OnesCount(uint(a1^a0)) != 1 {
						// The pair must differ in exactly one bit, with the
						// digit-0 side lower.
						errMu.Lock()
						if firstErr == nil {
							firstErr = fmt.Errorf("ascend: pair addresses %d,%d malformed at dim %d bit %d", a0, a1, d, b)
						}
						errMu.Unlock()
						return
					}
					s := bits.TrailingZeros(uint(a0 ^ a1))
					cur[va], cur[vb] = op(s, a0, a1, cur[va], cur[vb])
				}
			}
		}
	})
	if firstErr != nil {
		return firstErr
	}
	st.Exchanges++
	st.CompSteps += radix - 1
	return nil
}

// parallelBlocks runs fn over [0,n) in contiguous chunks on the worker
// pool.  Chunks touch disjoint subgroups (and therefore disjoint node ids),
// so no synchronization beyond the final barrier is needed.
func (r *Runner[T]) parallelBlocks(n int, fn func(lo, hi int)) {
	workers := r.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 256 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Reference executes the bit sequence directly on an address-indexed array,
// the trivially correct baseline against which super-IPG runs are checked.
// It mirrors the execution on a hypercube of log2(len(data)) dimensions,
// which performs one communication step per bit.
func Reference[T any](data []T, bitSeq []int, op BitOp[T]) []T {
	n := len(data)
	out := make([]T, n)
	copy(out, data)
	for _, b := range bitSeq {
		span := 1 << b
		for a0 := 0; a0 < n; a0++ {
			if a0&span != 0 {
				continue
			}
			a1 := a0 | span
			out[a0], out[a1] = op(b, a0, a1, out[a0], out[a1])
		}
	}
	return out
}

// AscendBits returns the bit sequence 0,1,...,logN-1.
func AscendBits(logN int) []int {
	seq := make([]int, logN)
	for i := range seq {
		seq[i] = i
	}
	return seq
}

// DescendBits returns the bit sequence logN-1,...,1,0.
func DescendBits(logN int) []int {
	seq := make([]int, logN)
	for i := range seq {
		seq[i] = logN - 1 - i
	}
	return seq
}
