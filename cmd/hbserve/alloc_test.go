package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"hbtree"
)

// TestHandleLineGETAllocFree pins zero allocations per request on the
// full line-protocol hot path — tokenize, parse, lookup, encode — for
// the direct, coalesced and sharded GET routes (the sharded route adds
// the key-to-shard binary search, which must stay allocation-free). The
// small bucket size keeps the simulated kernel and the CPU leaf stage
// inline, matching the serving layer's own allocation regression tests.
func TestHandleLineGETAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	pairs := hbtree.GeneratePairs[uint64](1<<10, 42)
	for _, cfg := range []struct {
		name string
		cfg  serveConfig
	}{
		{"direct", serveConfig{}},
		{"coalesced", serveConfig{coalesce: true, window: 100 * time.Microsecond, maxBatch: 1}},
		{"sharded", serveConfig{shards: 4}},
		{"sharded-coalesced", serveConfig{shards: 4, coalesce: true, window: 100 * time.Microsecond, maxBatch: 1}},
		{"coalesced-bounded", serveConfig{coalesce: true, window: 100 * time.Microsecond, maxBatch: 1, maxPending: 256}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			tree, err := hbtree.New(pairs, hbtree.Options{BucketSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			s := mustServer(t, tree, cfg.cfg)
			defer s.shutdown()
			w := bufio.NewWriter(io.Discard)
			line := fmt.Sprintf("GET %d", pairs[17].Key)

			// Warm the scratch, reply and batch pools.
			for i := 0; i < 32; i++ {
				if quit := s.handleLine(w, line); quit {
					t.Fatal("GET ended the session")
				}
				w.Flush()
			}
			allocs := testing.AllocsPerRun(200, func() {
				s.handleLine(w, line)
				w.Flush()
			})
			if allocs != 0 {
				t.Fatalf("GET allocates %.1f times per request, want 0", allocs)
			}
		})
	}
}

// TestPipelinedBurstAllocFree pins zero allocations per pipelined burst
// on the connection loop itself: 16 GETs arriving in one read are
// framed, parsed, answered by one SubmitBatch and encoded without
// allocating once the reader, writer, burst scratch and coalescer pools
// are warm.
func TestPipelinedBurstAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	pairs := hbtree.GeneratePairs[uint64](1<<10, 42)
	var script []byte
	for i := 0; i < 16; i++ {
		script = fmt.Appendf(script, "GET %d\n", pairs[i*61%len(pairs)].Key)
	}
	for _, cfg := range []struct {
		name string
		cfg  serveConfig
	}{
		{"coalesced", serveConfig{coalesce: true, window: 100 * time.Microsecond, maxBatch: 16}},
		{"sharded-coalesced", serveConfig{shards: 4, coalesce: true, window: 100 * time.Microsecond, maxBatch: 16}},
		{"coalesced-bounded", serveConfig{coalesce: true, window: 100 * time.Microsecond, maxBatch: 16, maxPending: 256}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			tree, err := hbtree.New(pairs, hbtree.Options{BucketSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			s := mustServer(t, tree, cfg.cfg)
			defer s.shutdown()
			src := bytes.NewReader(script)
			var out bytes.Buffer
			burst := func() {
				src.Reset(script)
				out.Reset()
				s.serveStream(src, &out)
			}
			for i := 0; i < 32; i++ {
				burst()
			}
			if n := strings.Count(out.String(), "VALUE "); n != 16 {
				t.Fatalf("burst answered %d of 16 GETs: %q", n, out.String())
			}
			if allocs := testing.AllocsPerRun(200, burst); allocs != 0 {
				t.Fatalf("pipelined burst allocates %.1f times, want 0", allocs)
			}
		})
	}
}
