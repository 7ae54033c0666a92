package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"hbtree/internal/core"
	"hbtree/internal/keys"
)

// batchSubmitter is the burst surface shared by Coalescer and
// ShardedCoalescer.
type batchSubmitter interface {
	SubmitBatch(ctx context.Context, keys, vals []uint64, found []bool, errs []error)
}

// burstResult runs one SubmitBatch and returns its caller-owned outputs.
func burstResult(ctx context.Context, c batchSubmitter, ks []uint64) ([]uint64, []bool, []error) {
	vals, found, errs := make([]uint64, len(ks)), make([]bool, len(ks)), make([]error, len(ks))
	c.SubmitBatch(ctx, ks, vals, found, errs)
	return vals, found, errs
}

// checkBurst compares every served answer of a burst with the map
// oracle: a nil error must carry exactly the oracle's value and found
// flag.
func checkBurst(t *testing.T, oracle map[uint64]uint64, ks, vals []uint64, found []bool, errs []error) {
	t.Helper()
	for i, k := range ks {
		if errs[i] != nil {
			t.Fatalf("key %d (%d): err %v", i, k, errs[i])
		}
		want, ok := oracle[k]
		if found[i] != ok || (ok && vals[i] != want) {
			t.Fatalf("key %d (%d) = (%d, %v), oracle (%d, %v)", i, k, vals[i], found[i], want, ok)
		}
	}
}

func pairOracle(pairs []keys.Pair[uint64]) map[uint64]uint64 {
	m := make(map[uint64]uint64, len(pairs))
	for _, p := range pairs {
		m[p.Key] = p.Value
	}
	return m
}

// burstKeys returns n keys: loaded keys spread over the dataset, with
// every fifth one a miss.
func burstKeys(pairs []keys.Pair[uint64], n int) []uint64 {
	ks := make([]uint64, n)
	for i := range ks {
		ks[i] = pairs[(i*1021)%len(pairs)].Key
		if i%5 == 4 {
			ks[i]++ // keys are sparse, so a neighbour is a miss
		}
	}
	return ks
}

// TestSubmitBatchLargerThanMaxBatch: a burst bigger than MaxBatch fills
// and flushes whole batches inline and leaves the remainder to the
// window; every answer matches the oracle.
func TestSubmitBatchLargerThanMaxBatch(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	c := NewCoalescer(srv, Options{MaxBatch: 8, Window: 2 * time.Millisecond, Shards: 1})
	defer c.Close()
	ks := burstKeys(pairs, 20)
	vals, found, errs := burstResult(context.Background(), c, ks)
	checkBurst(t, pairOracle(pairs), ks, vals, found, errs)
	if c.Batches() != 3 || c.Queries() != 20 {
		t.Fatalf("batches=%d queries=%d, want 3 flushes (8+8+4) of 20 keys", c.Batches(), c.Queries())
	}
}

// TestSubmitBatchDuplicatesFold: duplicate keys inside one burst fold to
// one batch slot each and the result fans out to every position.
func TestSubmitBatchDuplicatesFold(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	c := NewCoalescer(srv, Options{MaxBatch: 64, Window: time.Millisecond, Shards: 1})
	defer c.Close()
	a, b, miss := pairs[3].Key, pairs[900].Key, pairs[5].Key+1
	ks := []uint64{a, b, a, miss, a, b, miss}
	vals, found, errs := burstResult(context.Background(), c, ks)
	checkBurst(t, pairOracle(pairs), ks, vals, found, errs)
	if c.Folded() != 4 {
		t.Fatalf("folded = %d, want 4 (7 keys, 3 distinct)", c.Folded())
	}
}

// TestSubmitBatchPartialShed: at the admission bound a burst is admitted
// up to the room left and the excess is refused key by key with the
// typed overload error, each refused key counted in Shed — under the
// static shed window and under adaptive admission alike.
func TestSubmitBatchPartialShed(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"static", Options{MaxBatch: 64, Window: 2 * time.Millisecond, Shards: 4, MaxPending: 4, Shed: true}},
		{"adaptive", Options{MaxBatch: 64, Window: 2 * time.Millisecond, Shards: 4, MaxPending: 4, TargetP99: time.Second}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, pairs := newTestServer(t, core.Implicit, 1<<10)
			c := NewCoalescer(srv, tc.opt)
			defer c.Close()
			oracle := pairOracle(pairs)
			ks := burstKeys(pairs, 10)
			vals, found, errs := burstResult(context.Background(), c, ks)
			checkBurst(t, oracle, ks[:4], vals[:4], found[:4], errs[:4])
			for i := 4; i < len(ks); i++ {
				var oe *OverloadError
				if !errors.As(errs[i], &oe) || !errors.Is(errs[i], ErrOverloaded) || oe.RetryAfter <= 0 {
					t.Fatalf("key %d: err %v, want a typed ErrOverloaded", i, errs[i])
				}
			}
			if c.Shed() != 6 {
				t.Fatalf("Shed = %d, want 6 refused keys", c.Shed())
			}
			// The window drained with the flush: the next burst fits again.
			vals, found, errs = burstResult(context.Background(), c, ks[:4])
			checkBurst(t, oracle, ks[:4], vals, found, errs)
		})
	}
}

// TestSubmitBatchBackpressure: without Shed, a burst bigger than the
// whole window is admitted in rounds as flushes return tokens, and every
// key is served.
func TestSubmitBatchBackpressure(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	c := NewCoalescer(srv, Options{MaxBatch: 64, Window: time.Millisecond, Shards: 2, MaxPending: 4})
	defer c.Close()
	ks := burstKeys(pairs, 11)
	vals, found, errs := burstResult(context.Background(), c, ks)
	checkBurst(t, pairOracle(pairs), ks, vals, found, errs)
	if c.Batches() < 3 {
		t.Fatalf("batches = %d, want at least 3 rounds of 4 tokens", c.Batches())
	}
}

// TestSubmitBatchDeadline: keys still parked when ctx expires answer
// ErrDeadlineExceeded and count in Deadlines; keys already flushed keep
// their results.
func TestSubmitBatchDeadline(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	c := NewCoalescer(srv, Options{MaxBatch: 4, Window: time.Hour, Shards: 1})
	defer c.Close()
	ks := burstKeys(pairs, 6)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	vals, found, errs := burstResult(ctx, c, ks)
	checkBurst(t, pairOracle(pairs), ks[:4], vals[:4], found[:4], errs[:4])
	for i := 4; i < 6; i++ {
		if !errors.Is(errs[i], ErrDeadlineExceeded) {
			t.Fatalf("parked key %d: err %v, want ErrDeadlineExceeded", i, errs[i])
		}
	}
	if c.Deadlines() != 2 {
		t.Fatalf("Deadlines = %d, want 2", c.Deadlines())
	}
	// The abandoned slots still sit in the forming batch; Close fails
	// them without touching the caller's slices any more.
	clear(errs)
	c.Close()
	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("abandoned key %d written after its deadline: %v", i, errs[i])
		}
	}
}

// TestSubmitBatchClose: Close fails every key of a parked burst with
// ErrClosed, and bursts after Close fail fast.
func TestSubmitBatchClose(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	c := NewCoalescer(srv, Options{MaxBatch: 64, Window: time.Hour, Shards: 1, MaxPending: 64})
	ks := burstKeys(pairs, 9)
	done := make(chan []error, 1)
	go func() {
		_, _, errs := burstResult(context.Background(), c, ks)
		done <- errs
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case errs := <-done:
		for i, err := range errs {
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("key %d: err %v, want ErrClosed", i, err)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("burst hung across Close")
	}
	_, _, errs := burstResult(context.Background(), c, ks)
	for i, err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("post-Close key %d: err %v, want ErrClosed", i, err)
		}
	}
}

// TestSubmitBatchMixedWithSubmit: single-key submissions and a burst
// sharing one forming batch are each answered correctly.
func TestSubmitBatchMixedWithSubmit(t *testing.T) {
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	c := NewCoalescer(srv, Options{MaxBatch: 64, Window: 5 * time.Millisecond, Shards: 1})
	defer c.Close()
	r1 := c.Submit(pairs[7].Key)
	ks := burstKeys(pairs, 12)
	done := make(chan struct{})
	var vals []uint64
	var found []bool
	var errs []error
	go func() {
		vals, found, errs = burstResult(context.Background(), c, ks)
		close(done)
	}()
	r2 := c.Submit(pairs[8].Key)
	<-done
	checkBurst(t, pairOracle(pairs), ks, vals, found, errs)
	for i, r := range []<-chan Result[uint64]{r1, r2} {
		if res := <-r; res.Err != nil || !res.Found || res.Value != pairs[7+i].Value {
			t.Fatalf("single-key submission %d = %+v", i, res)
		}
	}
}

// TestShardedSubmitBatchSplitsByGroup: a burst over every shard splits
// into one sub-burst per shard group, and every answer matches the
// oracle; a deadline on the sharded burst counts its parked keys.
func TestShardedSubmitBatchSplitsByGroup(t *testing.T) {
	s, pairs := newShardedServer(t, core.Implicit, 1<<12, 4)
	co := s.Coalesce(Options{MaxBatch: 64, Window: time.Millisecond, Shards: 1})
	defer co.Close()
	ks := burstKeys(pairs, 40)
	vals, found, errs := burstResult(context.Background(), co, ks)
	checkBurst(t, pairOracle(pairs), ks, vals, found, errs)
	for i, g := range co.cos {
		if g.Queries() == 0 {
			t.Fatalf("shard group %d served nothing of a burst spanning every shard", i)
		}
	}
	if co.Queries() != 40 {
		t.Fatalf("queries = %d, want 40", co.Queries())
	}

	parked := s.Coalesce(Options{MaxBatch: 64, Window: time.Hour, Shards: 1})
	defer parked.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, _, errs = burstResult(ctx, parked, ks)
	for i, err := range errs {
		if !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("key %d: err %v, want ErrDeadlineExceeded", i, err)
		}
	}
	if parked.Deadlines() != 40 {
		t.Fatalf("sharded Deadlines = %d, want 40", parked.Deadlines())
	}
}

// TestSubmitBatchAllocFree pins zero allocations for a warm burst on
// the single-tree and sharded coalescers, bounded and not.
func TestSubmitBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	srv, pairs := newTestServer(t, core.Implicit, 1<<10)
	sh, spairs := newShardedServer(t, core.Implicit, 1<<10, 4)
	for _, tc := range []struct {
		name string
		co   interface {
			batchSubmitter
			Close()
		}
		pairs []keys.Pair[uint64]
	}{
		{"coalescer", NewCoalescer(srv, Options{MaxBatch: 16, Shards: 1}), pairs},
		{"coalescer-bounded", NewCoalescer(srv, Options{MaxBatch: 16, Shards: 2, MaxPending: 64}), pairs},
		{"sharded", sh.Coalesce(Options{MaxBatch: 1, Shards: 1, MaxPending: 64}), spairs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer tc.co.Close()
			ks := burstKeys(tc.pairs, 16)
			vals, found, errs := make([]uint64, 16), make([]bool, 16), make([]error, 16)
			oracle := pairOracle(tc.pairs)
			for i := 0; i < 32; i++ {
				tc.co.SubmitBatch(context.Background(), ks, vals, found, errs)
			}
			checkBurst(t, oracle, ks, vals, found, errs)
			allocs := testing.AllocsPerRun(100, func() {
				tc.co.SubmitBatch(context.Background(), ks, vals, found, errs)
			})
			if allocs != 0 {
				t.Fatalf("warm burst allocates %.2f times, want 0", allocs)
			}
		})
	}
}
