package main

import (
	"sync"
	"sync/atomic"
	"time"

	"hbtree/internal/serve"
)

// submitter is the coalescer's asynchronous entry point.
type submitter interface {
	Submit(key uint64) <-chan serve.Result[uint64]
}

// verdict is an oracle's judgement of one reply.
type verdict int

const (
	okReply verdict = iota
	wrongReply
	uncheckedReply // the reply raced more writes than the oracle tracks
)

// oracle maps stream positions to keys and judges replies. pick runs at
// submit time and returns a token carrying whatever verify needs.
type oracle interface {
	pick(i uint64) (key, tok uint64)
	verify(key, tok uint64, r serve.Result[uint64]) verdict
}

// tally counts attempts and failures; safe for concurrent use.
type tally struct {
	attempted, wrong, errs, unchecked int64
}

func (t *tally) failed() int64 { return t.wrong + t.errs }

func (t *tally) judge(or oracle, key, tok uint64, r serve.Result[uint64]) {
	atomic.AddInt64(&t.attempted, 1)
	if r.Err != nil {
		atomic.AddInt64(&t.errs, 1)
		return
	}
	switch or.verify(key, tok, r) {
	case wrongReply:
		atomic.AddInt64(&t.wrong, 1)
	case uncheckedReply:
		atomic.AddInt64(&t.unchecked, 1)
	}
}

// count records one reply the caller judged itself.
func (t *tally) count(good bool) {
	atomic.AddInt64(&t.attempted, 1)
	if !good {
		atomic.AddInt64(&t.wrong, 1)
	}
}

// traceEvery samples one request in this many for request and submit
// spans.
const traceEvery = 64

// inflight is one outstanding request.
type inflight struct {
	ch       <-chan serve.Result[uint64]
	key, tok uint64
	pos      uint64
	due      time.Duration // open loop: when the request was due
	span     int64         // traced: the request span's ID, 0 if unsampled
	start    int64         // traced: request span start
}

// loop is the state shared by one phase's generators.
type loop struct {
	sub submitter
	or  oracle
	tl  *tally
	tr  *tracer
}

// send submits the request at stream position pos into s.
func (l *loop) send(s *inflight, pos uint64) {
	s.pos = pos
	s.key, s.tok = l.or.pick(pos)
	if l.tr == nil || pos%traceEvery != 0 {
		s.span = 0
		s.ch = l.sub.Submit(s.key)
		return
	}
	s.span = l.tr.id()
	s0 := l.tr.now()
	s.ch = l.sub.Submit(s.key)
	s1 := l.tr.now()
	if s.start == 0 {
		s.start = s0
	}
	l.tr.add(0, s.span, "coalescer.submit", s0, s1, int64(pos))
}

// finish judges a delivered reply and closes its request span.
func (l *loop) finish(s *inflight, r serve.Result[uint64]) {
	l.tl.judge(l.or, s.key, s.tok, r)
	if s.span != 0 {
		l.tr.add(s.span, 0, "request", s.start, l.tr.now(), int64(s.pos))
	}
	s.start = 0
}

// closedLoop runs clients generator goroutines, each keeping depth
// requests in flight, for dur. Client c sends stream positions base+c,
// base+c+clients, ... It returns the completions per second summed over
// clients in each rateWindow; replies still in flight at the deadline are
// judged but not counted.
func closedLoop(l *loop, clients, depth int, dur time.Duration, base uint64) []float64 {
	var wg sync.WaitGroup
	curves := make([][]point, clients)
	start := time.Now()
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ring := make([]inflight, depth)
			pos := base + uint64(c)
			for i := range ring {
				l.send(&ring[i], pos)
				pos += uint64(clients)
			}
			curve := []point{{0, 0}}
			var n int64
			for j := 0; ; j = (j + 1) % depth {
				s := &ring[j]
				l.finish(s, <-s.ch)
				n++
				if n%256 == 0 {
					el := time.Since(start)
					curve = append(curve, point{el, n})
					if el >= dur {
						curves[c] = curve
						for k := 1; k < depth; k++ {
							s := &ring[(j+k)%depth]
							l.finish(s, <-s.ch)
						}
						return
					}
				}
				l.send(s, pos)
				pos += uint64(clients)
			}
		}()
	}
	wg.Wait()
	return windowRates(curves, dur)
}

// openResult is one open-loop phase's measurements.
type openResult struct {
	lat  latWindows // completion minus due time, by due time
	late []int64    // traced: submit minus due time, ns
	cpu  time.Duration
	wall time.Duration
}

// ringSize bounds the open loop's outstanding requests; a full ring
// delays submission, which shows as lateness.
const ringSize = 1 << 12

// openLoop sends requests at a fixed total rate for dur from gens
// goroutines. Generator g owns every gens-th slot of one schedule and
// both submits its due requests and collects their replies in submission
// order. Each request is timed from its due time, so a stall charges
// every request scheduled behind it. With sink set, requests go nowhere:
// the run measures the generators' own cost on the same schedule.
func openLoop(l *loop, rate float64, dur time.Duration, base uint64, gens int, sink bool) openResult {
	parts := make([]openResult, gens)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	for g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[g] = openGen(l, rate, dur, base, g, gens, start, sink)
		}()
	}
	wg.Wait()
	res := openResult{wall: time.Since(start), cpu: cpuTime() - cpu0, lat: latWindows{w: latWindow(rate, dur)}}
	for _, p := range parts {
		res.lat.merge(p.lat)
		res.late = append(res.late, p.late...)
	}
	return res
}

// openGen is one open-loop generator: it owns schedule slots g, g+gens,
// ... of a schedule that sends rate requests per second from start.
func openGen(l *loop, rate float64, dur time.Duration, base uint64, g, gens int, start time.Time, sink bool) openResult {
	total := int(rate*dur.Seconds()) / gens
	period := float64(time.Second) / rate
	due := func(i int) time.Duration { return time.Duration(float64(i*gens+g) * period) }
	res := openResult{lat: latWindows{w: latWindow(rate, dur)}}
	ring := make([]inflight, ringSize)
	done := make(chan serve.Result[uint64])
	close(done)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	next, head := 0, 0
	complete := func(s *inflight, r serve.Result[uint64]) {
		if !sink {
			res.lat.add(s.due, time.Since(start)-s.due)
			l.finish(s, r)
		}
		head++
	}
	for head < total {
		now := time.Since(start)
		for next < total && next-head < ringSize && due(next) <= now {
			s := &ring[next%ringSize]
			s.due = due(next)
			if sink {
				s.ch = done
			} else {
				if l.tr != nil {
					s.start = int64(start.Sub(l.tr.t0) + s.due)
					res.late = append(res.late, int64(time.Since(start)-s.due))
				}
				l.send(s, base+uint64(next*gens+g))
			}
			next++
		}
		for head < next {
			s := &ring[head%ringSize]
			select {
			case r := <-s.ch:
				complete(s, r)
				continue
			default:
			}
			break
		}
		switch {
		case head == total:
		case head < next && (next == total || next-head == ringSize):
			s := &ring[head%ringSize]
			complete(s, <-s.ch)
		default:
			wait := due(next) - time.Since(start)
			if wait <= 0 {
				continue
			}
			timer.Reset(wait)
			if head == next {
				<-timer.C
				continue
			}
			s := &ring[head%ringSize]
			select {
			case r := <-s.ch:
				complete(s, r)
			case <-timer.C:
			}
		}
	}
	return res
}
