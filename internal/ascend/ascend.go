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

	"ipg/internal/ipg"
	"ipg/internal/perm"
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

// Runner executes passes over a materialized super-IPG.
type Runner[T any] struct {
	W *superipg.Network
	G *ipg.Graph

	// ports is the port-labelled view of G (port gi = generator gi); the
	// data-movement loop consults only this interface.
	ports topo.Ported

	homeAddr []int // node id -> its own address
	logM     int
	// dimBitOffset[d] is the global bit offset of nucleus dimension d
	// within a group's bit field.
	dimBitOffset []int
	// subgroups caches, per nucleus dimension, the node-id groups of the
	// front-group exchange in one flat array of NumDims x N ids: within
	// dimension d's slab, blocks of radix, block i holding the radix nodes
	// of one subgroup ordered by digit.  Node labels never move (only data
	// does), so the grouping is static; subgroupsBuilt[d] marks filled
	// slabs.
	subgroups      []int32
	subgroupsBuilt []bool
	workers        int
	// addrToNode is the lazily built inverse of homeAddr, used to present
	// displaced (NoFinalRestore) results in address order.
	addrToNode []int32
}

// NewRunner prepares a runner; it requires a power-of-two nucleus.
func NewRunner[T any](w *superipg.Network, g *ipg.Graph) (*Runner[T], error) {
	logM, err := w.Nuc.TotalBits()
	if err != nil {
		return nil, err
	}
	r := &Runner[T]{W: w, G: g, ports: g, logM: logM, workers: runtime.GOMAXPROCS(0)}
	r.subgroups = make([]int32, w.Nuc.NumDims()*g.N())
	r.subgroupsBuilt = make([]bool, w.Nuc.NumDims())
	off := 0
	for d := 0; d < w.Nuc.NumDims(); d++ {
		r.dimBitOffset = append(r.dimBitOffset, off)
		b, err := w.Nuc.DimBits(d)
		if err != nil {
			return nil, err
		}
		off += b
	}
	r.homeAddr = make([]int, g.N())
	var lbl perm.Label
	for v := 0; v < g.N(); v++ {
		lbl = g.LabelInto(v, lbl)
		a, err := w.AddressOf(lbl)
		if err != nil {
			return nil, err
		}
		r.homeAddr[v] = a
	}
	return r, nil
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
			byNode[r.nodeOfAddr(placement[v])] = out[v]
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
	copy(vaddr, r.homeAddr)
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
			if vaddr[v] != r.homeAddr[v] {
				return nil, nil, st, fmt.Errorf("ascend: datum with address %d ended at node %d (home address %d)",
					vaddr[v], v, r.homeAddr[v])
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

// nodeOfAddr returns the node whose home address is a (lazily built
// inverse of homeAddr).
func (r *Runner[T]) nodeOfAddr(a int) int {
	if r.addrToNode == nil {
		r.addrToNode = make([]int32, len(r.homeAddr))
		for v, ha := range r.homeAddr {
			//lint:ignore indextrunc v < g.N() <= ipg.MaxNodes (1<<22)
			r.addrToNode[ha] = int32(v)
		}
	}
	return int(r.addrToNode[a])
}

// dimSubgroups returns (building and caching on first use) the exchange
// subgroups of nucleus dimension d: g.N() node ids in blocks of radix,
// each block one subgroup ordered by dimension-d digit.  The result is a
// view into dimension d's slab of the flat cache.
func (r *Runner[T]) dimSubgroups(d int) ([]int32, error) {
	g, w := r.G, r.W
	flat := r.subgroups[d*g.N() : (d+1)*g.N()]
	if r.subgroupsBuilt[d] {
		return flat, nil
	}
	nuc := w.Nuc
	m := w.SymbolLen()
	radix := nuc.Dims[d].Radix
	idx := make(map[string]int32, g.N()/radix)
	for i := range flat {
		flat[i] = -1
	}
	scratch := make([]byte, m)
	next := int32(0)
	var lbl perm.Label
	for v := 0; v < g.N(); v++ {
		lbl = g.LabelInto(v, lbl)
		copy(scratch, lbl[:m])
		digit, err := nuc.Digit(scratch, d)
		if err != nil {
			return nil, err
		}
		if err := nuc.SetDigit(scratch, d, 0); err != nil {
			return nil, err
		}
		key := string(scratch) + string(lbl[m:])
		block, ok := idx[key]
		if !ok {
			block = next
			next++
			idx[key] = block
		}
		slot := int(block)*radix + digit
		if flat[slot] != -1 {
			return nil, fmt.Errorf("ascend: duplicate digit %d in subgroup of dim %d", digit, d)
		}
		//lint:ignore indextrunc v < g.N() <= ipg.MaxNodes (1<<22)
		flat[slot] = int32(v)
	}
	for i, v := range flat {
		if v < 0 {
			return nil, fmt.Errorf("ascend: dim %d subgroup block %d missing digit %d", d, i/radix, i%radix)
		}
	}
	r.subgroupsBuilt[d] = true
	return flat, nil
}

// exchange performs the nucleus dimension-d exchange in the front group:
// the radix items of every dimension-d subgroup run a butterfly over the
// dimension's bits.  Subgroups are independent, so they execute on a
// worker pool.
func (r *Runner[T]) exchange(cur []T, vaddr []int, d int, descBits bool, op BitOp[T], st *Stats) error {
	nuc := r.W.Nuc
	radix := nuc.Dims[d].Radix
	nbits, err := nuc.DimBits(d)
	if err != nil {
		return err
	}
	flat, err := r.dimSubgroups(d)
	if err != nil {
		return err
	}
	nblocks := len(flat) / radix
	var firstErr error
	var errMu sync.Mutex
	r.parallelBlocks(nblocks, func(lo, hi int) {
		for blk := lo; blk < hi; blk++ {
			sg := flat[blk*radix : (blk+1)*radix]
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
					va, vb := sg[x], sg[y]
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
