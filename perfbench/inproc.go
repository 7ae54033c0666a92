package main

import (
	"runtime"
	"time"

	"hbtree/internal/core"
	"hbtree/internal/gpusim"
	"hbtree/internal/keys"
	"hbtree/internal/serve"
	"hbtree/internal/workload"
)

// A run sets its stack up setupMin times, and more while set-up has
// taken less than setupBudget, up to setupMax; setup_s is the median.
const (
	setupMin    = 5
	setupMax    = 41
	setupBudget = 500 * time.Millisecond
)

// moreSetups reports whether the i-th set-up should run.
func moreSetups(i int, since time.Time) bool {
	return i < setupMin || (i < setupMax && time.Since(since) < setupBudget)
}

// The read workloads' load: readClients closed-loop clients with
// readDepth requests in flight each for capacity, and the same number of
// open-loop generators sharing readRate lookups/s for latency. The rate
// is low on purpose: near capacity, open-loop latency on a 2-core host
// spreads by more than the metrics' bounds from run to run.
const (
	readClients = 2
	readDepth   = 4096
	readRate    = 150_000
)

// streamLen is the length of a precomputed key stream; generators cycle
// through it.
const streamLen = 1 << 20

// stack is an in-process serving stack: a server, the benchmark's backend
// wrapper, and a coalescer with the serving defaults.
type stack struct {
	srv *serve.Server[uint64]
	be  *backend
	co  *serve.Coalescer[uint64]
}

func newStack(srv *serve.Server[uint64], tr *tracer) *stack {
	be := &backend{srv: srv, tr: tr}
	return &stack{srv: srv, be: be, co: serve.NewCoalescer[uint64](be, serve.Options{})}
}

// heapInUse returns the bytes of live heap objects after two full
// collections (the second empties the sync.Pool victim caches).
func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// readOracle serves a precomputed key stream over a static dataset whose
// values are workload.ValueFor(key): every lookup must hit.
type readOracle struct{ keys []uint64 }

func (o *readOracle) pick(i uint64) (uint64, uint64) { return o.keys[i%uint64(len(o.keys))], 0 }

func (o *readOracle) verify(key, _ uint64, r serve.Result[uint64]) verdict {
	if r.Found && r.Value == workload.ValueFor(key) {
		return okReply
	}
	return wrongReply
}

func runReadUniform(cfg *runConfig, rep *report) error {
	pairs := workload.Dataset[uint64](workload.Uniform, 1<<23, cfg.seed)
	r := workload.NewRNG(cfg.seed ^ 0x5eed)
	stream := make([]uint64, streamLen)
	for i := range stream {
		stream[i] = pairs[r.Intn(len(pairs))].Key
	}
	return runRead(cfg, rep, pairs, stream)
}

// runReadZipf maps Zipf(α=2) ranks onto the loaded keys through a seeded
// permutation, so hot ranks land anywhere in the key space and every
// lookup hits.
func runReadZipf(cfg *runConfig, rep *report) error {
	pairs := workload.Dataset[uint64](workload.Uniform, 1<<16, cfg.seed)
	perm := make([]int32, len(pairs))
	for i := range perm {
		perm[i] = int32(i)
	}
	workload.Shuffle(perm, cfg.seed^0x9e37)
	ranks := workload.SkewedQueries[uint64](workload.Zipf, streamLen, cfg.seed^0x5eed)
	stream := make([]uint64, streamLen)
	for i, k := range ranks {
		// workload.Zipf places rank r at key (r-1)<<44 (a 2^20-rank
		// universe on a 2^53 grid).
		stream[i] = pairs[perm[(k>>44)%uint64(len(pairs))]].Key
	}
	return runRead(cfg, rep, pairs, stream)
}

// runRead serves pairs from an implicit tree with the tuned layout.
func runRead(cfg *runConfig, rep *report, pairs []keys.Pair[uint64], stream []uint64) error {
	var st *stack
	var setups []float64
	h0 := heapInUse()
	for i, s0 := 0, time.Now(); moreSetups(i, s0); i++ {
		if st != nil {
			st.co.Close()
			st.srv.Close()
			st = nil
		}
		runtime.GC() // every set-up starts from the same heap state
		t0 := time.Now()
		tree, err := core.Build(pairs, core.Options{Layout: core.LayoutTuned})
		if err != nil {
			return err
		}
		st = newStack(serve.NewServer(tree), cfg.tr)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.srv.Close()
	defer st.co.Close()
	rep.set("setup_s", medianF(setups))
	rep.set("mem_mb", float64(int64(heapInUse())-int64(h0))/(1<<20))
	runtime.KeepAlive(pairs) // live across both readings, so the delta is the stack alone

	p := measureReads(cfg, rep, st, &readOracle{stream}, readClients, readDepth, readRate)
	if cfg.tr != nil {
		genShare(cfg, rep, p)
		replay(cfg.tr, st.srv.Tree(), st.be.capturedBatches(), rep, func(k, v uint64, found bool) bool {
			return found && v == workload.ValueFor(k)
		})
	}
	return nil
}

// readPhases is what measureReads hands back for the workload's own
// follow-up: the latency rounds' totals and the loop that ran them.
type readPhases struct {
	l         *loop
	gens      int
	rate      float64
	cpu, wall time.Duration // process CPU and wall time of the latency rounds
	acc       batchAcc      // the latency rounds' backend calls (traced runs)
}

// measureReads runs the read phases every in-process workload shares: a
// warm-up, then rounds of closed-loop capacity with clients×depth in
// flight and open-loop latency at rate from clients generators, S/2 of
// each in all. A traced run adds an untraced capacity pass first (the
// trace-overhead base) and traces the rounds.
func measureReads(cfg *runConfig, rep *report, st *stack, or oracle, clients, depth int, rate float64) readPhases {
	step := cfg.dur / (2 * rounds)
	l := &loop{sub: st.co, or: or, tl: &rep.tally}
	closedLoop(l, clients, depth, 250*time.Millisecond, 0)

	var plain float64
	if cfg.tr != nil {
		plain = medianF(closedLoop(l, clients, depth, cfg.dur/4, 1<<40))
		l.tr = cfg.tr
	}
	var (
		pool          pooled
		capAcc        batchAcc
		cnt           counters
		capWall       time.Duration
		late          []int64
		p             = readPhases{l: l, gens: clients, rate: rate}
		capBase, open = uint64(2 << 40), uint64(3 << 40)
	)
	for r := range rounds {
		c0 := coCounters(st)
		st.be.phase(true)
		t0 := time.Now()
		pool.rates = append(pool.rates, closedLoop(l, clients, depth, step, capBase+uint64(r)<<32)...)
		capWall += time.Since(t0)
		capAcc.add(st.be.phase(false))
		cnt.add(coCounters(st), c0)

		st.be.phase(true)
		o := openLoop(l, rate, step, open+uint64(r)<<32, clients, false)
		p.acc.add(st.be.phase(false))
		pool.addLat(o.lat, step)
		late = append(late, o.late...)
		p.cpu += o.cpu
		p.wall += o.wall
	}
	pool.report(rep)
	if cfg.tr != nil {
		rep.set("bench.late_p99_us", pct(late, 0.99)/1e3)
		rep.set("bench.trace_overhead", ratio(medianF(pool.rates), plain))
		rep.set("coalescer.submit_ns", pct(cfg.tr.durations("coalescer.submit"), 0.5))
		setLayerCounts(rep, capAcc, cnt, capWall)
	}
	return p
}

// genShare replays the latency schedule into a no-op sink and reports
// the generators' share of the latency rounds' process CPU, and the
// coalescer's share: what is left once backend calls and generators are
// taken out. Run it once nothing else of the workload is running.
func genShare(cfg *runConfig, rep *report, p readPhases) {
	dry := openLoop(p.l, p.rate, cfg.dur/4, 3<<40, p.gens, true)
	genCPU := float64(dry.cpu) / dry.wall.Seconds() * p.wall.Seconds()
	rep.set("bench.gen_cpu_share", ratio(genCPU, float64(p.cpu)))
	rep.set("coalescer.cpu_share", max(0, ratio(float64(p.cpu)-float64(p.acc.busyNs)-genCPU, float64(p.cpu))))
}

// counters is a snapshot (or a sum of deltas) of the coalescer, server
// and device counters.
type counters struct {
	batches, queries, folded int64
	dev                      gpusim.Counters
}

// add adds the delta b-a.
func (c *counters) add(b, a counters) {
	c.batches += b.batches - a.batches
	c.queries += b.queries - a.queries
	c.folded += b.folded - a.folded
	c.dev.BytesH2D += b.dev.BytesH2D - a.dev.BytesH2D
	c.dev.BytesD2H += b.dev.BytesD2H - a.dev.BytesD2H
	c.dev.Kernels += b.dev.Kernels - a.dev.Kernels
}

func coCounters(st *stack) counters {
	return counters{st.co.Batches(), st.co.Queries(), st.co.Folded(), st.srv.DeviceCounters()}
}

// setLayerCounts derives the coalescer, server, gpusim, cpubtree and
// model metrics of the traced capacity rounds from their counter deltas.
func setLayerCounts(rep *report, a batchAcc, c counters, wall time.Duration) {
	q := float64(c.queries)
	flushes := float64(c.batches)
	rep.set("coalescer.keys_per_flush", ratio(q, flushes))
	rep.set("coalescer.fold_ratio", ratio(float64(c.folded), q))
	rep.set("coalescer.flushes_per_s", flushes/wall.Seconds())
	rep.set("server.batch_us_p50", pct(a.durs, 0.50)/1e3)
	rep.set("server.batch_us_p99", pct(a.durs, 0.99)/1e3)
	rep.set("server.busy_share", float64(a.busyNs)/float64(wall))
	rep.set("gpusim.node_probes_per_lookup", ratio(float64(a.probes), q))
	rep.set("gpusim.probes_saved_ratio", ratio(float64(a.saved), float64(a.probes+a.saved)))
	rep.set("gpusim.h2d_bytes_per_lookup", ratio(float64(c.dev.BytesH2D), q))
	rep.set("gpusim.d2h_bytes_per_lookup", ratio(float64(c.dev.BytesD2H), q))
	rep.set("gpusim.kernels_per_flush", ratio(float64(c.dev.Kernels), flushes))
	rep.set("cpubtree.leaf_lines_per_lookup", ratio(float64(a.leafLines), q))
	for i, name := range []string{"model.t1_us", "model.t2_us", "model.t3_us", "model.t4_us"} {
		rep.set(name, ratio(a.stageNs[i], float64(a.buckets))/1e3)
	}
	rep.set("model.measured_over_modelled", ratio(float64(a.busyNs), a.simNs))
}
