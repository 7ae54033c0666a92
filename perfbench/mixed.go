package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hbtree/internal/core"
	"hbtree/internal/cpubtree"
	"hbtree/internal/keys"
	"hbtree/internal/serve"
	"hbtree/internal/wal"
	"hbtree/internal/workload"
)

const (
	mixedPairs   = 1 << 21 // pairs loaded at start
	mixedSpare   = 1 << 17 // further keys of the universe, absent at start
	writeBatch   = 1024    // ops per Durable.Update
	snapEveryOps = 1 << 19 // acked ops between Durable.Snapshot calls
	recoverCheck = 1 << 16 // acked keys read back after reopening
	mixedRate    = 100_000 // open-loop reader rate, lookups/s
	absent       = ^uint64(0)
)

// mixedOracle tracks the writer's state per key of the universe so that
// readers can judge replies that race writes. Each key has a seqlock
// (twice the number of writes staged, odd while one is being staged),
// the batch that last wrote it, and its state after (cur) and before
// (prev) that write; absent encodes a deleted or never-inserted key.
type mixedOracle struct {
	ukeys  []uint64 // the universe, sorted
	stream []int32  // universe indices: the precomputed read stream
	seq    []atomic.Uint32
	lb     []atomic.Uint32
	cur    []atomic.Uint64
	prev   []atomic.Uint64
	acked  atomic.Uint32 // last batch the durable layer acknowledged
}

// load reads key i's seqlock-consistent state.
func (o *mixedOracle) load(i int32) (writes, batch uint32, cur, prev uint64) {
	for {
		s := o.seq[i].Load()
		if s%2 == 1 {
			runtime.Gosched()
			continue
		}
		batch, cur, prev = o.lb[i].Load(), o.cur[i].Load(), o.prev[i].Load()
		if o.seq[i].Load() == s {
			return s / 2, batch, cur, prev
		}
	}
}

// store stages one write of key i by batch b.
func (o *mixedOracle) store(i int32, b uint32, v uint64) {
	o.seq[i].Add(1)
	o.prev[i].Store(o.cur[i].Load())
	o.cur[i].Store(v)
	o.lb[i].Store(b)
	o.seq[i].Add(1)
}

// pick returns the key at stream position i and a token holding the
// key's universe index, its write count, and whether its last write was
// still unacknowledged when the request was submitted.
func (o *mixedOracle) pick(i uint64) (uint64, uint64) {
	idx := o.stream[i%uint64(len(o.stream))]
	w, b, _, _ := o.load(idx)
	var inflight uint64
	if b > o.acked.Load() {
		inflight = 1
	}
	return o.ukeys[idx], uint64(idx)<<33 | inflight<<32 | uint64(w)
}

// verify accepts a reply that equals a state the key held while the
// request was in flight. Acknowledged writes must be visible: a request
// submitted after a write's ack may not see the state before it. A reply
// that raced more than the oracle keeps (a second write during the
// request, or a write that was unacknowledged at submit) and matches
// neither kept state is counted unchecked, not wrong.
func (o *mixedOracle) verify(_, tok uint64, r serve.Result[uint64]) verdict {
	idx, inflight, w1 := int32(tok>>33), tok>>32&1 == 1, uint32(tok)
	w2, _, cur, prev := o.load(idx)
	got := absent
	if r.Found {
		got = r.Value
	}
	switch {
	case got == cur:
		return okReply
	case got == prev && (w2 > w1 || inflight):
		return okReply
	case w2 == w1 || (w2 == w1+1 && !inflight):
		return wrongReply
	}
	return uncheckedReply
}

// writer is the closed-loop writer: 1024-op Durable.Update batches of 90%
// overwrites, 5% inserts and 5% deletes, with a Durable.Snapshot every
// snapEveryOps acknowledged ops.
type writer struct {
	o   *mixedOracle
	d   *serve.Durable[uint64]
	dir string
	tr  *tracer
	rng *workload.RNG

	present, missing []int32 // universe indices by current state
	where            []int32 // each index's position in its list

	batch     uint32
	lats      []int64 // per batch, ns
	ops       int64   // acknowledged ops
	userBytes int64   // acknowledged key+value bytes (deletes: key only)
	snapNs    []int64
	snapBytes int64
	err       error
}

func (w *writer) move(i int32, from, to *[]int32) {
	p := w.where[i]
	last := (*from)[len(*from)-1]
	(*from)[p] = last
	w.where[last] = p
	*from = (*from)[:len(*from)-1]
	w.where[i] = int32(len(*to))
	*to = append(*to, i)
}

func (w *writer) run(stop *atomic.Bool) {
	ops := make([]cpubtree.Op[uint64], 0, writeBatch)
	sinceSnap := int64(0)
	for !stop.Load() {
		w.batch++
		ops = ops[:0]
		for len(ops) < writeBatch {
			r := w.rng.Intn(100)
			var i int32
			switch {
			case r < 90 || (r < 95 && len(w.missing) == 0):
				i = w.present[w.rng.Intn(len(w.present))]
			case r < 95:
				i = w.missing[w.rng.Intn(len(w.missing))]
			default:
				i = w.present[w.rng.Intn(len(w.present))]
			}
			if w.o.lb[i].Load() == w.batch {
				continue // one op per key per batch
			}
			op := cpubtree.Op[uint64]{Key: w.o.ukeys[i]}
			v := absent
			if r >= 95 {
				op.Delete = true
				w.move(i, &w.present, &w.missing)
				w.userBytes += 8
			} else {
				if r >= 90 {
					w.move(i, &w.missing, &w.present)
				}
				v = w.rng.Uint64() >> 1 // never absent
				op.Value = v
				w.userBytes += 16
			}
			w.o.store(i, w.batch, v)
			ops = append(ops, op)
		}
		t0 := time.Now()
		if _, err := w.d.Update(ops, core.AsyncParallel); err != nil {
			w.err = err
			return
		}
		t1 := time.Now()
		w.o.acked.Store(w.batch)
		w.lats = append(w.lats, int64(t1.Sub(t0)))
		if w.tr != nil {
			w.tr.add(0, 0, "durable.update", int64(t0.Sub(w.tr.t0)), int64(t1.Sub(w.tr.t0)), -1)
		}
		w.ops += writeBatch
		if sinceSnap += writeBatch; sinceSnap >= snapEveryOps {
			sinceSnap = 0
			if err := w.snapshot(); err != nil {
				w.err = err
				return
			}
		}
	}
}

func (w *writer) snapshot() error {
	t0 := time.Now()
	ep, err := w.d.Snapshot()
	if err != nil {
		return err
	}
	t1 := time.Now()
	w.snapNs = append(w.snapNs, int64(t1.Sub(t0)))
	if w.tr != nil {
		w.tr.add(0, 0, "durable.snapshot", int64(t0.Sub(w.tr.t0)), int64(t1.Sub(w.tr.t0)), -1)
	}
	ents, err := os.ReadDir(filepath.Join(w.dir, wal.SnapDir(ep)))
	if err != nil {
		return err
	}
	for _, e := range ents {
		if fi, err := e.Info(); err == nil {
			w.snapBytes += fi.Size()
		}
	}
	return nil
}

// openMixed opens a durable regular tree in dir, bootstrapping it from
// pairs when dir holds no snapshot.
func openMixed(dir string, pairs []keys.Pair[uint64]) (*serve.Durable[uint64], error) {
	return serve.OpenDurable(serve.DurableOptions{Dir: dir, FsyncInterval: 2 * time.Millisecond},
		core.Options{Variant: core.Regular, LeafFill: 0.875}, 1,
		func() ([]keys.Pair[uint64], error) { return pairs, nil })
}

func closeMixed(d *serve.Durable[uint64]) error {
	err := d.Close()
	d.Server().Close()
	return err
}

func runMixed(cfg *runConfig, rep *report) error {
	all := workload.Dataset[uint64](workload.Uniform, mixedPairs+mixedSpare, cfg.seed)
	n := len(all)
	o := &mixedOracle{
		ukeys: make([]uint64, n),
		seq:   make([]atomic.Uint32, n),
		lb:    make([]atomic.Uint32, n),
		cur:   make([]atomic.Uint64, n),
		prev:  make([]atomic.Uint64, n),
	}
	spare := make([]bool, n)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	workload.Shuffle(idx, cfg.seed^0x51a7)
	for _, i := range idx[:mixedSpare] {
		spare[i] = true
	}
	w := &writer{o: o, tr: cfg.tr, rng: workload.NewRNG(cfg.seed ^ 0x3417e), where: make([]int32, n)}
	var pairs []keys.Pair[uint64]
	for i, p := range all {
		o.ukeys[i] = p.Key
		o.prev[i].Store(absent)
		if spare[i] {
			o.cur[i].Store(absent)
			w.where[i] = int32(len(w.missing))
			w.missing = append(w.missing, int32(i))
			continue
		}
		o.cur[i].Store(p.Value)
		w.where[i] = int32(len(w.present))
		w.present = append(w.present, int32(i))
		pairs = append(pairs, p)
	}
	r := workload.NewRNG(cfg.seed ^ 0x5eed)
	o.stream = make([]int32, streamLen)
	for i := range o.stream {
		o.stream[i] = int32(r.Intn(n))
	}

	// Set-up: bootstrap a fresh data dir several times; keep the last.
	var setups []float64
	var dir string
	defer func() { os.RemoveAll(dir) }()
	h0 := heapInUse()
	for i, s0 := 0, time.Now(); moreSetups(i, s0); i++ {
		if w.d != nil {
			if err := closeMixed(w.d); err != nil {
				return err
			}
			w.d = nil
			os.RemoveAll(dir)
		}
		dir = filepath.Join(cfg.workDir, fmt.Sprintf("mixed-%d-%d", os.Getpid(), i))
		os.RemoveAll(dir)
		runtime.GC()
		t0 := time.Now()
		d, err := openMixed(dir, pairs)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		w.d, w.dir = d, dir
	}
	rep.set("setup_s", medianF(setups))
	rep.set("mem_mb", float64(int64(heapInUse())-int64(h0))/(1<<20))
	runtime.KeepAlive(pairs)

	st := newStack(w.d.Server(), cfg.tr)
	srv0, pm0 := w.d.Server().Metrics(), w.d.Metrics()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	t0 := time.Now()
	go func() {
		defer wg.Done()
		w.run(&stop)
	}()
	p := measureReads(cfg, rep, st, o, 1, readDepth, mixedRate)
	stop.Store(true)
	wg.Wait()
	wall := time.Since(t0)
	if w.err != nil {
		st.co.Close()
		closeMixed(w.d)
		return w.err
	}
	srv1, pm1 := w.d.Server().Metrics(), w.d.Metrics()
	rep.set("durable.update_mqps", float64(w.ops)/wall.Seconds()/1e6)
	rep.set("durable.update_p50_ms", pct(w.lats, 0.50)/1e6)
	rep.set("durable.update_p99_ms", pct(w.lats, 0.99)/1e6)
	rep.set("durable.write_amp", ratio(float64(pm1.WalBytes-pm0.WalBytes+w.snapBytes), float64(w.userBytes)))
	rep.set("durable.snapshot_ms", pct(w.snapNs, 0.50)/1e6)
	rep.set("durable.snapshots", float64(pm1.Snapshots-pm0.Snapshots))
	rep.set("wal.syncs_per_append", ratio(float64(pm1.Syncs-pm0.Syncs), float64(pm1.Appends-pm0.Appends)))
	rep.set("wal.bytes_per_op", ratio(float64(pm1.WalBytes-pm0.WalBytes), float64(pm1.AppendedOps-pm0.AppendedOps)))
	rep.set("server.swaps_per_s", float64(srv1.Swaps-srv0.Swaps)/wall.Seconds())
	inplace, clones := srv1.InPlaceApplied-srv0.InPlaceApplied, srv1.CloneFallbacks-srv0.CloneFallbacks
	rep.set("server.inplace_ratio", ratio(float64(inplace), float64(inplace+clones)))
	rep.set("server.cloned_bytes_per_op", ratio(float64(srv1.ClonedBytes-srv0.ClonedBytes), float64(w.ops)))

	if cfg.tr != nil {
		genShare(cfg, rep, p)
		replay(cfg.tr, w.d.Server().Tree(), st.be.capturedBatches(), rep, func(k, v uint64, found bool) bool {
			return true // values moved under the writer; the replay times, the reads above checked
		})
	}
	st.co.Close()
	if err := closeMixed(w.d); err != nil {
		return err
	}
	return recoverCheckMixed(cfg, rep, o, dir)
}

// recoverCheckMixed reopens the data dir, reads back a sample of the
// universe against the acknowledged final state, and reports the time
// from reopening to the first answered batch as recover_s.
func recoverCheckMixed(cfg *runConfig, rep *report, o *mixedOracle, dir string) error {
	r := workload.NewRNG(cfg.seed ^ 0x7ec0)
	qs := make([]uint64, recoverCheck)
	want := make([]uint64, recoverCheck)
	for i := range qs {
		j := int32(r.Intn(len(o.ukeys)))
		qs[i] = o.ukeys[j]
		want[i] = o.cur[j].Load()
	}
	vals := make([]uint64, recoverCheck)
	found := make([]bool, recoverCheck)
	t0 := time.Now()
	d, err := openMixed(dir, nil)
	if err != nil {
		return err
	}
	if _, err := d.Server().LookupBatchInto(qs, vals, found); err != nil {
		closeMixed(d)
		return err
	}
	rep.set("durable.recover_s", time.Since(t0).Seconds())
	if !d.Recovery().Recovered {
		closeMixed(d)
		return fmt.Errorf("reopened data dir was bootstrapped, not recovered")
	}
	for i := range qs {
		got := absent
		if found[i] {
			got = vals[i]
		}
		rep.attempted++
		if got != want[i] {
			rep.wrong++
		}
	}
	return closeMixed(d)
}
