package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hbtree/internal/core"
	"hbtree/internal/keys"
)

// Tests of the default flush trigger (Options.Window zero): a batch's
// first request kicks its shard's flusher, which takes whatever has
// gathered by the time it runs.

// strandTimeout bounds every wait of the no-linger tests, so a lost
// kick fails in seconds instead of hanging the suite.
const strandTimeout = 5 * time.Second

// lingerCoalescer is the request surface shared by Coalescer and
// ShardedCoalescer.
type lingerCoalescer interface {
	batchSubmitter
	Submit(key uint64) <-chan Result[uint64]
	Lookup(key uint64) (uint64, bool, error)
	LookupCtx(ctx context.Context, key uint64) (uint64, bool, error)
	Close()
}

// lingerOp sends ks through entry point op (0 Submit, 1 Lookup,
// 2 LookupCtx, 3 SubmitBatch) and checks every answer against the
// oracle. It reports whether any key was refused with ErrClosed; any
// other error is a test failure. Submit, LookupCtx and SubmitBatch
// wait at most strandTimeout; a stranded Lookup is caught by
// lingerLoad's watchdog.
func lingerOp(t *testing.T, co lingerCoalescer, oracle map[uint64]uint64, op int, ks []uint64) (closed bool) {
	check := func(k, v uint64, found bool, err error) {
		switch {
		case errors.Is(err, ErrClosed):
			closed = true
		case err != nil:
			t.Errorf("op %d key %d: %v", op, k, err)
		default:
			if want, ok := oracle[k]; found != ok || (ok && v != want) {
				t.Errorf("op %d key %d = (%d, %v), oracle (%d, %v)", op, k, v, found, want, ok)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), strandTimeout)
	defer cancel()
	switch op {
	case 0:
		chs := make([]<-chan Result[uint64], len(ks))
		for i, k := range ks {
			chs[i] = co.Submit(k)
		}
		for i, ch := range chs {
			select {
			case r := <-ch:
				check(ks[i], r.Value, r.Found, r.Err)
			case <-ctx.Done():
				t.Errorf("Submit(%d) stranded for %v", ks[i], strandTimeout)
			}
		}
	case 1:
		for _, k := range ks {
			v, found, err := co.Lookup(k)
			check(k, v, found, err)
		}
	case 2:
		for _, k := range ks {
			v, found, err := co.LookupCtx(ctx, k)
			check(k, v, found, err)
		}
	case 3:
		vals, found, errs := burstResult(ctx, co, ks)
		for i, k := range ks {
			check(k, vals[i], found[i], errs[i])
		}
	}
	return closed
}

// lingerLoad runs 16 workers that each send rounds requests (one to
// nine keys, hits and misses) through rotating entry points. With stop
// set, workers run until their requests are refused with ErrClosed and
// stop is called once a few hundred requests have completed. If no
// request completes for strandTimeout the load is failed as stranded
// and the coalescer closed so the workers unwind.
func lingerLoad(t *testing.T, co lingerCoalescer, pairs []keys.Pair[uint64], oracle map[uint64]uint64, rounds int, stop func()) {
	const workers = 16
	var progress atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; stop != nil || r < rounds; r++ {
				ks := make([]uint64, 1+(w*7+r)%9)
				for i := range ks {
					ks[i] = pairs[(w*1031+r*257+i*61)%len(pairs)].Key
					if (w+r+i)%5 == 4 {
						ks[i]++ // keys are sparse, so a neighbour is a miss
					}
				}
				closed := lingerOp(t, co, oracle, (w+r)%4, ks)
				progress.Add(1)
				if closed {
					if stop == nil {
						t.Errorf("worker %d: ErrClosed before Close", w)
					}
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	last, lastAt, stopped := int64(-1), time.Now(), false
	for {
		select {
		case <-done:
			return
		case <-tick.C:
		}
		n := progress.Load()
		if stop != nil && !stopped && n >= 20*workers {
			stop()
			stopped = true
		}
		if n != last {
			last, lastAt = n, time.Now()
			continue
		}
		if time.Since(lastAt) > strandTimeout {
			t.Errorf("no request completed for %v after %d: a batch is stranded", strandTimeout, n)
			co.Close()
			<-done
			return
		}
	}
}

// TestNoLingerNoStrandedRequests: with Window zero no request is ever
// left waiting for a kick that never comes — under Submit, Lookup,
// LookupCtx and SubmitBatch mixed, on unsharded, bounded and sharded
// coalescers, at GOMAXPROCS 1 (where a kicked flusher runs only once
// the submitter yields) and at the host's setting, and with Close
// landing mid-stream. MaxBatch 4 mixes inline full-batch flushes with
// kicked ones; at MaxBatch 256 no batch ever fills (16 workers hold at
// most 144 keys), so every batch depends on its kick and a lost one
// stalls the whole load. Every answer matches the map oracle.
func TestNoLingerNoStrandedRequests(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<12)
	sh, _ := newShardedServer(t, core.Implicit, 1<<12, 4) // same dataset
	oracle := pairOracle(pairs)
	procs := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		procs = append(procs, p)
	}
	for _, p := range procs {
		t.Run(fmt.Sprintf("procs=%d", p), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
			for _, tc := range []struct {
				name string
				new  func(maxBatch int) lingerCoalescer
			}{
				{"coalescer", func(mb int) lingerCoalescer { return NewCoalescer(srv, Options{MaxBatch: mb}) }},
				{"coalescer-bounded", func(mb int) lingerCoalescer {
					return NewCoalescer(srv, Options{MaxBatch: mb, Shards: 3, MaxPending: 16})
				}},
				{"sharded", func(mb int) lingerCoalescer { return sh.Coalesce(Options{MaxBatch: mb}) }},
			} {
				for _, mb := range []int{4, 256} {
					t.Run(fmt.Sprintf("%s/batch=%d", tc.name, mb), func(t *testing.T) {
						co := tc.new(mb)
						lingerLoad(t, co, pairs, oracle, 100, nil)
						co.Close()
						if t.Failed() {
							return
						}

						co = tc.new(mb)
						lingerLoad(t, co, pairs, oracle, 0, co.Close)
					})
				}
			}
		})
	}
}

// TestNoLingerLoneLookupLatency: a lone request is flushed as soon as
// the flusher is free, not after a deadline — the median of sequential
// Lookups on zero Options stays under 100µs, a floor the deadline path
// (at least one Window, rounded up by the Go timer) never gets under.
func TestNoLingerLoneLookupLatency(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation slows every goroutine hand-off")
	}
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	co := NewCoalescer(srv, Options{})
	defer co.Close()
	lats := make([]time.Duration, 1000)
	for i := range lats {
		p := pairs[(i*31)%len(pairs)]
		t0 := time.Now()
		v, found, err := co.Lookup(p.Key)
		lats[i] = time.Since(t0)
		if err != nil || !found || v != p.Value {
			t.Fatalf("Lookup(%d) = (%d, %v, %v), want (%d, true, nil)", p.Key, v, found, err, p.Value)
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if med := lats[len(lats)/2]; med >= 100*time.Microsecond {
		t.Fatalf("median lone Lookup %v, want < 100µs (p90 %v)", med, lats[len(lats)*9/10])
	}
}

// TestNoLingerStillBatches: without a linger window, concurrent
// closed-loop callers still share flushes — requests that arrive while
// a flush runs form the next batch.
func TestNoLingerStillBatches(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	co := NewCoalescer(srv, Options{})
	defer co.Close()
	const clients, each = 64, 200
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				p := pairs[(c*each+i)%len(pairs)]
				if v, found, err := co.Lookup(p.Key); err != nil || !found || v != p.Value {
					t.Errorf("Lookup(%d) = (%d, %v, %v), want (%d, true, nil)", p.Key, v, found, err, p.Value)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	q, b := co.Queries(), co.Batches()
	if b == 0 || q < 2*b {
		t.Fatalf("%d queries in %d batches: %.2f keys per flush, want >= 2", q, b, float64(q)/float64(max(b, 1)))
	}
	t.Logf("%d queries in %d batches (%.1f keys per flush)", q, b, float64(q)/float64(b))
}
