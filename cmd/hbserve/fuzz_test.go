package main

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"hbtree"
)

// fuzzServer lazily builds one small regular-variant server shared by
// all fuzz executions (building a tree per input would drown the
// fuzzer). Regular variant so PUT/DEL reach the real update path.
var (
	fuzzOnce sync.Once
	fuzzSrv  *server
)

func fuzzServerInit(f *testing.F) *server {
	f.Helper()
	fuzzOnce.Do(func() {
		pairs := hbtree.GeneratePairs[uint64](1<<10, 42)
		tree, err := hbtree.New(pairs, hbtree.Options{Variant: hbtree.Regular, BucketSize: 64})
		if err != nil {
			f.Fatal(err)
		}
		fuzzSrv, err = newServer(tree, serveConfig{})
		if err != nil {
			f.Fatal(err)
		}
	})
	return fuzzSrv
}

// FuzzServeProtocol feeds arbitrary lines to the protocol parser: it
// must never panic, empty input produces no reply, and every non-empty
// command produces a reply (ERR for anything malformed or unknown).
func FuzzServeProtocol(f *testing.F) {
	seeds := []string{
		"",
		"   ",
		"GET 5",
		"GET",
		"GET abc",
		"GET 18446744073709551615",
		"GET 99999999999999999999999999",
		"PUT 5 6",
		"PUT 5",
		"PUT 18446744073709551615 1",
		"PUT x y",
		"DEL 5",
		"DEL",
		"DEL -1",
		"RANGE 0 10",
		"RANGE 0 -1",
		"RANGE 0 9999999999",
		"RANGE",
		"SCAN 7 3",
		"SCAN 7",
		"SCAN a b",
		"SCANC 7 3",
		"RANGEC 0 10",
		"EPOCH",
		"REBALANCE STATS",
		"REBALANCE SPLIT 0",
		"REBALANCE MERGE 0",
		"REBALANCE SPLIT x",
		"REBALANCE",
		"DESCRIBE",
		"STATS",
		"SHARDSTATS",
		"QUIT",
		"quit",
		"FLY me to the moon",
		"\x00\x01\x02",
		"GET\t5",
		"PUT 1 2 3 4",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	srv := fuzzServerInit(f)
	f.Fuzz(func(t *testing.T, line string) {
		var sb strings.Builder
		quit := srv.handleLine(&sb, line)
		out := sb.String()

		fields := strings.Fields(line)
		if len(fields) == 0 {
			if out != "" {
				t.Fatalf("blank line %q produced output %q", line, out)
			}
			return
		}
		// Every real command line gets a reply.
		if out == "" {
			t.Fatalf("command %q produced no reply", line)
		}
		// Replies are line-terminated, so a pipelined client never
		// blocks waiting for a missing newline.
		if !strings.HasSuffix(out, "\n") {
			t.Fatalf("reply to %q not newline-terminated: %q", line, out)
		}
		cmd := strings.ToUpper(fields[0])
		switch cmd {
		case "GET", "PUT", "DEL", "RANGE", "SCAN", "SCANC", "RANGEC", "EPOCH",
			"REBALANCE", "DESCRIBE", "STATS", "SHARDSTATS", "QUIT":
			// Known commands reply per-protocol; checked by the unit
			// tests. Here only the no-panic/no-silence contract applies.
		default:
			if !strings.HasPrefix(out, "ERR") {
				t.Fatalf("unknown command %q got non-ERR reply %q", line, out)
			}
		}
		if quit && cmd != "QUIT" {
			t.Fatalf("line %q closed the session", line)
		}
	})
}

// chunkReader hands out data in pseudo-random chunks of 1..64 bytes, so
// line boundaries and bursts fall at arbitrary points of the stream.
type chunkReader struct {
	data  []byte
	state uint64
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	r.state = r.state*6364136223846793005 + 1442695040888963407
	n := min(int(r.state>>58)+1, len(p), len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// Stream fuzz servers: a serial reference, the burst loop on the direct
// path, and the burst loop on the coalescer. All three see every input
// in the same order, so their states stay identical across executions.
var (
	streamOnce sync.Once
	streamRef  *server
	streamDir  *server
	streamCo   *server
)

func streamServersInit(f *testing.F) {
	f.Helper()
	streamOnce.Do(func() {
		pairs := hbtree.GeneratePairs[uint64](1<<10, 42)
		build := func(cfg serveConfig) *server {
			tree, err := hbtree.New(pairs, hbtree.Options{Variant: hbtree.Regular, BucketSize: 64})
			if err != nil {
				f.Fatal(err)
			}
			s, err := newServer(tree, cfg)
			if err != nil {
				f.Fatal(err)
			}
			return s
		}
		streamRef = build(serveConfig{})
		streamDir = build(serveConfig{})
		streamCo = build(serveConfig{coalesce: true, window: 20 * time.Microsecond, maxBatch: 16})
	})
}

// FuzzServeStream splits an arbitrary byte stream at arbitrary points
// and feeds it to the connection loop: it must never panic or hang, and
// its reply stream must equal the serial transcript of the same lines
// through handleLine. The coalesced server's STATS counters differ from
// the direct reference by design, so its transcript is compared only
// for inputs without a STATS command.
func FuzzServeStream(f *testing.F) {
	seeds := []string{
		"GET 5\nGET 6\nGET 7\n",
		"GET 5\nPUT 5 9\nGET 5\nDEL 5\nGET 5\n",
		"GET 1\nGET\nGET abc\nGET 99999999999999999999\nGET 2\n",
		"GET 1\r\nget 2\r\n\r\n   \nGET\t3\nGET  4 \n",
		"GET 1\nQUIT\nGET 2\n",
		"PUT 7 1\nGET 7\nRANGE 0 3\nGET 7\nSTATS\nGET 8",
		"GET 18446744073709551615\nGET 0\nGET 00042\nGET +5\nGET -1\n",
		"GET 1\nGET 1\nGET 1\nFLY\nGET 1\n",
		"GET 1 2\nGET 3\nGET 4\xff\nEPOCH\nDESCRIBE\n",
	}
	for i, s := range seeds {
		f.Add([]byte(s), uint64(i))
	}
	streamServersInit(f)
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		if len(data) > 16<<10 {
			return
		}
		want := serialTranscript(streamRef, data)
		var got bytes.Buffer
		streamDir.serveStream(&chunkReader{data: data, state: seed}, &got)
		if got.String() != want {
			t.Fatalf("direct burst loop differs from the serial transcript\ninput: %q\ngot:  %q\nwant: %q", data, got.String(), want)
		}
		got.Reset()
		streamCo.serveStream(&chunkReader{data: data, state: seed}, &got)
		if !bytes.Contains(bytes.ToUpper(data), []byte("STATS")) && got.String() != want {
			t.Fatalf("coalesced burst loop differs from the serial transcript\ninput: %q\ngot:  %q\nwant: %q", data, got.String(), want)
		}
	})
}
