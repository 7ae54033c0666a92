package main

import (
	"slices"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/gpusim"
	"hbtree/internal/keys"
	"hbtree/internal/workload"
)

// replayPasses is how many times the replay runs over the captured
// batches.
const replayPasses = 3

// replay times the three stages of a sorted flush on batches the
// coalescer actually flushed: keys.SortWithPerm on a shuffled copy (the
// coalescer's input arrives in submission order), the gpusim sorted
// kernel on a private device, and the cpubtree sorted leaf search. It
// checks the leaf results with valid and reports ns per key for each
// stage. Spans: replay.batch with children core.sort, gpusim.kernel and
// cpubtree.leaf.
func replay(tr *tracer, tree *core.Tree[uint64], batches [][]uint64, rep *report, valid func(k, v uint64, found bool) bool) {
	dev := gpusim.New(tree.Device().Config())
	var kernel func(q []uint64, out []int32)
	var leaf func(q []uint64, out []int32, v []uint64, f []bool)
	if it := tree.Implicit(); it != nil {
		inner, levelOff, kpn, fanout := it.InnerArray()
		desc := gpusim.ImplicitDesc{Kpn: kpn, Fanout: fanout, Height: it.Height(), NumLeaves: it.NumLeafLines()}
		for _, o := range levelOff {
			desc.LevelOff = append(desc.LevelOff, int32(o))
		}
		for _, g := range it.LevelGeometry() {
			desc.Levels = append(desc.Levels, gpusim.LevelGeom{Off: int32(g.Slot), Kpn: int32(g.Kpn), Fanout: int32(g.Fanout), Lines: int32(g.Kpn / kpn)})
		}
		kernel = func(q []uint64, out []int32) { _, _ = gpusim.ImplicitSearchKernelSorted(dev, inner, desc, q, out, nil) }
		leaf = func(q []uint64, out []int32, v []uint64, f []bool) { it.SearchLeavesBatchSorted(q, out, v, f) }
	} else {
		rt := tree.Regular()
		upper, last, root, height, nodeSlots, kpl := rt.InnerArrays()
		desc := gpusim.RegularDesc{Root: root, RootInUpper: height >= 2, Height: height, NodeSlots: nodeSlots, Kpl: kpl}
		var lines []int32
		var refs []cpubtree.LeafRef
		kernel = func(q []uint64, out []int32) {
			lines = slices.Grow(lines[:0], len(q))[:len(q)]
			_, _ = gpusim.RegularSearchKernelSorted(dev, upper, last, desc, q, out, lines, nil)
		}
		leaf = func(q []uint64, out []int32, v []uint64, f []bool) {
			refs = refs[:0]
			for i := range q {
				refs = append(refs, cpubtree.LeafRef{Leaf: out[i], Line: lines[i]})
			}
			rt.SearchLeavesBatchSorted(q, refs, v, f)
		}
	}
	var nkeys, sortNs, kernNs, leafNs int64
	for pass := range replayPasses {
		for bi, b := range batches {
			n := len(b)
			shuffled := slices.Clone(b)
			workload.Shuffle(shuffled, uint64(pass*len(batches)+bi))
			perm := make([]int32, n)
			for i := range perm {
				perm[i] = int32(i)
			}
			out := make([]int32, n)
			vals := make([]uint64, n)
			found := make([]bool, n)
			parent := tr.id()
			t0 := tr.now()
			keys.SortWithPerm(shuffled, perm)
			t1 := tr.now()
			kernel(b, out)
			t2 := tr.now()
			leaf(b, out, vals, found)
			t3 := tr.now()
			tr.add(0, parent, "core.sort", t0, t1, -1)
			tr.add(0, parent, "gpusim.kernel", t1, t2, -1)
			tr.add(0, parent, "cpubtree.leaf", t2, t3, -1)
			tr.add(parent, 0, "replay.batch", t0, t3, -1)
			nkeys += int64(n)
			sortNs += t1 - t0
			kernNs += t2 - t1
			leafNs += t3 - t2
			for i, k := range b {
				if !valid(k, vals[i], found[i]) {
					rep.wrong++
				}
			}
		}
	}
	rep.set("core.sort_ns_per_key", ratio(float64(sortNs), float64(nkeys)))
	rep.set("gpusim.kernel_ns_per_key", ratio(float64(kernNs), float64(nkeys)))
	rep.set("cpubtree.leaf_ns_per_key", ratio(float64(leafNs), float64(nkeys)))
}
