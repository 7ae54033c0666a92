package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"hbtree"
)

// serialTranscript is the reference reply stream for input: the lines
// as bufio.ScanLines splits them, each run through handleLine on its
// own, in order, stopping after QUIT.
func serialTranscript(s *server, input []byte) string {
	var out strings.Builder
	sc := bufio.NewScanner(bytes.NewReader(input))
	sc.Buffer(make([]byte, readBufSize), readBufSize)
	for sc.Scan() {
		if s.handleLine(&out, sc.Text()) {
			break
		}
	}
	return out.String()
}

// burstConfigs are the serving modes the burst oracle runs under: the
// direct path, the coalescer, the sharded coalescer group, and the
// coalescer under a per-burst deadline that never fires.
var burstConfigs = []struct {
	name string
	cfg  serveConfig
}{
	{"direct", serveConfig{}},
	{"coalesce", serveConfig{coalesce: true, window: 100 * time.Microsecond, maxBatch: 64}},
	{"shards4-coalesce", serveConfig{shards: 4, coalesce: true, window: 100 * time.Microsecond, maxBatch: 64}},
	{"coalesce-deadline", serveConfig{coalesce: true, window: 100 * time.Microsecond, maxBatch: 64, deadline: 5 * time.Second}},
}

// readAll reads conn until the server closes it.
func readAll(t *testing.T, conn net.Conn) string {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(ioTimeout))
	b, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("reading replies: %v (got %q)", err, b)
	}
	return string(b)
}

// TestPipelinedTranscriptOracle: a mixed script written to the socket in
// one write — GET hits, misses and malformed GETs, PUT/DEL interleaved
// with GETs of the same keys, duplicate keys, other commands, a trailing
// partial line completed by a second write, and QUIT in the middle of a
// burst — must come back byte for byte as the serial transcript of the
// same lines through handleLine on an identically built server.
func TestPipelinedTranscriptOracle(t *testing.T) {
	pairs := hbtree.GeneratePairs[uint64](1<<12, 21)
	k := func(i int) uint64 { return pairs[i*37%len(pairs)].Key }
	first := fmt.Sprintf(""+
		"GET %d\nGET %d\nGET 1\nGET\nGET abc\nGET 99999999999999999999\nGET %d\n"+
		"PUT %d 111\nGET %d\nget %d\nDEL %d\nGET %d\nGET %d\nDEL %d\n"+
		"PUT 12345 678\nGET 12345\nGET\t%d\nGET %d\r\n   \nGET %d\n"+
		"RANGE %d 3\nGET %d\nGET %d\nGET %d\nGET 18446744073709551615\nGET 0\nGET 00042\nGET +5\n"+
		"FLY\nGET %d\nGET %d\nGET  %d\nGET %d %d\nGET %s",
		k(0), k(1), k(2),
		k(3), k(3), k(4), k(3), k(3), k(5), k(3),
		k(6), k(7), k(8),
		k(0), k(9), k(1), k(1),
		k(10), k(11), k(12), k(13), k(14),
		fmt.Sprint(k(15))[:4])
	second := fmt.Sprintf("%s\nGET %d\nGET %d\nQUIT\nGET %d\nPUT %d 1\n",
		fmt.Sprint(k(15))[4:], k(16), k(1), k(17), k(18))

	for _, bc := range burstConfigs {
		t.Run(bc.name, func(t *testing.T) {
			newRegular := func() *server {
				tree, err := hbtree.New(pairs, hbtree.Options{Variant: hbtree.Regular})
				if err != nil {
					t.Fatal(err)
				}
				return mustServer(t, tree, bc.cfg)
			}
			ref := newRegular()
			defer ref.shutdown()
			want := serialTranscript(ref, []byte(first+second))
			if !strings.HasSuffix(want, "BYE\n") || strings.Count(want, "VALUE 111\n") != 1 {
				t.Fatalf("reference transcript misses the script's landmarks:\n%s", want)
			}

			dial := startServer(t, newRegular())
			conn, _ := dial()
			if _, err := io.WriteString(conn, first); err != nil {
				t.Fatal(err)
			}
			// The server answers everything before the partial line without
			// waiting for the rest of it.
			time.Sleep(20 * time.Millisecond)
			if _, err := io.WriteString(conn, second); err != nil {
				t.Fatal(err)
			}
			if got := readAll(t, conn); got != want {
				t.Fatalf("burst transcript differs from the serial one\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestPartialLineDoesNotDelayBurst: only complete buffered lines join a
// burst, so the GETs before a trailing partial line are answered while
// the partial line waits for its newline.
func TestPartialLineDoesNotDelayBurst(t *testing.T) {
	tree, pairs := newTestTree(t, hbtree.Implicit, 3)
	s := mustServer(t, tree, serveConfig{coalesce: true, window: 100 * time.Microsecond, maxBatch: 64})
	dial := startServer(t, s)
	conn, r := dial()
	last := fmt.Sprint(pairs[2].Key)
	if _, err := fmt.Fprintf(conn, "GET %d\nGET %d\nGET %s", pairs[0].Key, pairs[1].Key, last[:3]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d held back by the partial line: %v", i, err)
		}
		if want := fmt.Sprintf("VALUE %d\n", pairs[i].Value); got != want {
			t.Fatalf("reply %d = %q, want %q", i, got, want)
		}
	}
	if got := sendLine(t, conn, r, last[3:]); got != fmt.Sprintf("VALUE %d", pairs[2].Value) {
		t.Fatalf("completed partial GET = %q", got)
	}
}

// writeBurst writes n pipelined GETs of pairs' keys in one write.
func writeBurst(t *testing.T, conn net.Conn, pairs []hbtree.Pair[uint64], n int) {
	t.Helper()
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "GET %d\n", pairs[i].Key)
	}
	if _, err := io.WriteString(conn, b.String()); err != nil {
		t.Fatal(err)
	}
}

// readReplies reads n reply lines.
func readReplies(t *testing.T, r *bufio.Reader, n int) []string {
	t.Helper()
	out := make([]string, n)
	for i := range out {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		out[i] = strings.TrimSpace(line)
	}
	return out
}

// TestBurstDeadline: with -deadline, every GET of a burst parked behind
// a window that will not fire answers ERR DEADLINE, and each counts in
// STATS deadlines.
func TestBurstDeadline(t *testing.T) {
	tree, pairs := newTestTree(t, hbtree.Implicit, 13)
	s := mustServer(t, tree, serveConfig{
		coalesce: true, window: time.Hour, maxBatch: 64, deadline: 100 * time.Millisecond,
	})
	dial := startServer(t, s)
	conn, r := dial()
	writeBurst(t, conn, pairs, 16)
	for i, got := range readReplies(t, r, 16) {
		if got != "ERR DEADLINE" {
			t.Fatalf("reply %d = %q, want ERR DEADLINE", i, got)
		}
	}
	if got := sendLine(t, conn, r, "STATS"); !strings.Contains(got, "deadlines=16 ") {
		t.Fatalf("STATS after an expired burst = %q", got)
	}
}

// TestBurstShedInOrder: a burst larger than the room left in the
// admission window is admitted up to the bound; the rest answer ERR
// OVERLOADED with the retry hint one by one, in request order.
func TestBurstShedInOrder(t *testing.T) {
	tree, pairs := newTestTree(t, hbtree.Implicit, 13)
	s := mustServer(t, tree, serveConfig{
		coalesce: true, window: 20 * time.Millisecond, maxBatch: 64, maxPending: 4, shed: true,
	})
	dial := startServer(t, s)
	conn, r := dial()
	writeBurst(t, conn, pairs, 8)
	for i, got := range readReplies(t, r, 8) {
		want := fmt.Sprintf("VALUE %d", pairs[i].Value)
		if i >= 4 {
			want = "ERR OVERLOADED retry-after-ms=20"
		}
		if got != want {
			t.Fatalf("reply %d = %q, want %q", i, got, want)
		}
	}
	if got := sendLine(t, conn, r, "STATS"); !strings.Contains(got, " shed=4 ") {
		t.Fatalf("STATS after a partly shed burst = %q", got)
	}
}

// TestBurstCloseFailsPending: closing the coalescer while a burst is
// parked behind its window fails every GET of it with ERR CLOSED, and
// the server still drains.
func TestBurstCloseFailsPending(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			tree, pairs := newTestTree(t, hbtree.Implicit, 13)
			s := mustServer(t, tree, serveConfig{coalesce: true, window: time.Hour, maxBatch: 64, shards: shards})
			dial := startServer(t, s)
			conn, r := dial()
			writeBurst(t, conn, pairs, 16)
			time.Sleep(50 * time.Millisecond) // let the burst park
			s.co.Close()
			for i, got := range readReplies(t, r, 16) {
				if got != "ERR CLOSED" {
					t.Fatalf("reply %d = %q, want ERR CLOSED", i, got)
				}
			}
			done := make(chan struct{})
			go func() {
				s.shutdown()
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(ioTimeout):
				t.Fatal("shutdown hung after the burst was failed")
			}
		})
	}
}

// TestBurstScratchBounded: a stream of the shortest GET lines, far more
// than one read buffer holds, is answered in full while the burst
// scratch never grows past maxBurst — the GETs one read buffer can hold.
func TestBurstScratchBounded(t *testing.T) {
	if maxBurst*len("GET 0\n") < readBufSize {
		t.Fatalf("maxBurst %d cannot hold a buffer of %d-byte GET lines", maxBurst, len("GET 0\n"))
	}
	tree, _ := newTestTree(t, hbtree.Implicit, 13)
	s := mustServer(t, tree, serveConfig{})
	defer s.shutdown()
	bs := newBurstScratch(1)
	var out bytes.Buffer
	const lines = 3 * maxBurst
	for i := 0; i < lines; i++ {
		if s.takeLine(&out, bs, []byte("GET 0\n")) {
			t.Fatal("GET ended the session")
		}
		if cap(bs.keys) > maxBurst || len(bs.vals) > maxBurst {
			t.Fatalf("burst scratch grew to %d keys, past maxBurst %d", cap(bs.keys), maxBurst)
		}
	}
	s.answer(&out, bs)
	if n := strings.Count(out.String(), "\n"); n != lines {
		t.Fatalf("%d replies for %d GETs", n, lines)
	}
}
