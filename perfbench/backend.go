package main

import (
	"slices"
	"sync"
	"sync/atomic"

	"hbtree/internal/core"
	"hbtree/internal/serve"
)

// captureBatches is how many flush batches a traced run keeps for the
// per-stage replay.
const captureBatches = 64

// backend is the serve.Backend the benchmark hands to serve.NewCoalescer:
// it forwards to the server and, while a traced phase runs, times every
// LookupBatchSortedInto call, sums its SearchStats, records a
// server.batch span and keeps the first flush batches for replay.
type backend struct {
	srv *serve.Server[uint64]
	tr  *tracer

	on       atomic.Bool
	mu       sync.Mutex
	acc      batchAcc
	captured [][]uint64
}

// batchAcc sums the backend calls of one phase.
type batchAcc struct {
	busyNs    int64
	durs      []int64
	probes    int64
	saved     int64
	leafLines int64
	buckets   int64
	simNs     float64
	stageNs   [4]float64 // T1..T4 summed per bucket
}

// add sums another phase's calls into a.
func (a *batchAcc) add(o batchAcc) {
	a.busyNs += o.busyNs
	a.durs = append(a.durs, o.durs...)
	a.probes += o.probes
	a.saved += o.saved
	a.leafLines += o.leafLines
	a.buckets += o.buckets
	a.simNs += o.simNs
	for i := range a.stageNs {
		a.stageNs[i] += o.stageNs[i]
	}
}

func (b *backend) LookupBatchInto(q, v []uint64, f []bool) (core.SearchStats, error) {
	return b.srv.LookupBatchInto(q, v, f)
}

func (b *backend) LookupBatchSortedInto(q, v []uint64, f []bool) (core.SearchStats, error) {
	if !b.on.Load() {
		return b.srv.LookupBatchSortedInto(q, v, f)
	}
	t0 := b.tr.now()
	st, err := b.srv.LookupBatchSortedInto(q, v, f)
	t1 := b.tr.now()
	b.mu.Lock()
	{
		a := &b.acc
		a.busyNs += t1 - t0
		a.durs = append(a.durs, t1-t0)
		a.probes += st.NodeProbes
		a.saved += st.ProbesSaved
		a.leafLines += int64(st.LeafLines)
		a.buckets += int64(st.Buckets)
		a.simNs += float64(st.SimTime)
		for i, d := range [4]float64{float64(st.T1), float64(st.T2), float64(st.T3), float64(st.T4)} {
			a.stageNs[i] += d * float64(st.Buckets)
		}
		if len(b.captured) < captureBatches {
			b.captured = append(b.captured, slices.Clone(q))
		}
	}
	b.mu.Unlock()
	b.tr.add(0, 0, "server.batch", t0, t1, -1)
	return st, err
}

func (b *backend) Options() core.Options { return b.srv.Options() }
func (b *backend) Degraded() bool        { return b.srv.Degraded() }

// phase turns tracing on or off (it stays off in an untraced run) and
// returns what the previous phase accumulated.
func (b *backend) phase(on bool) batchAcc {
	b.on.Store(on && b.tr != nil)
	b.mu.Lock()
	defer b.mu.Unlock()
	a := b.acc
	b.acc = batchAcc{}
	return a
}

// capturedBatches returns the flush batches kept for replay.
func (b *backend) capturedBatches() [][]uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.captured
}
