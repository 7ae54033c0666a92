package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hbtree/internal/workload"
)

const (
	wirePairs = 1 << 20 // hbserve's default -n
	wireConns = 2
	wireDepth = 16   // closed loop: pipelined GETs per connection
	wireRate  = 1000 // open loop: GETs per second over all connections, about half of capacity
	wireSetup = 3    // hbserve starts per run; setup_s is the median
)

// hbserve is one running hbserve process.
type hbserve struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has exited
}

// startHbserve starts hbserve with its defaults plus -coalesce on a free
// loopback port and returns once it listens.
func startHbserve(bin string, seed uint64) (*hbserve, error) {
	cmd := exec.Command(bin, "-coalesce", "-addr", "127.0.0.1:0", "-seed", strconv.FormatUint(seed, 10))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logs, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	h := &hbserve{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(h.done)
		sc := bufio.NewScanner(logs)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr <- strings.Fields(a)[0]
			}
		}
		cmd.Wait()
	}()
	select {
	case h.addr = <-addr:
		return h, nil
	case <-h.done:
		return nil, fmt.Errorf("hbserve exited before listening")
	case <-time.After(60 * time.Second):
		h.stop()
		return nil, fmt.Errorf("hbserve did not listen within 60s")
	}
}

// stop interrupts hbserve, kills it if it has not drained within five
// seconds, and waits for it to exit.
func (h *hbserve) stop() {
	h.cmd.Process.Signal(os.Interrupt)
	select {
	case <-h.done:
	case <-time.After(5 * time.Second):
		h.cmd.Process.Kill()
		<-h.done
	}
}

// procStat returns hbserve's CPU time and resident set size.
func (h *hbserve) procStat() (cpu time.Duration, rssMiB float64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", h.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks of 10ms.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	stt, _ := strconv.ParseInt(f[12], 10, 64)
	rssPages, _ := strconv.ParseInt(f[21], 10, 64)
	return time.Duration(ut+stt) * 10 * time.Millisecond, float64(rssPages*int64(os.Getpagesize())) / (1 << 20), nil
}

// wireConn is one client connection with a line reader that survives
// read deadlines.
type wireConn struct {
	c   net.Conn
	w   *bufio.Writer
	buf []byte
	n   int
}

func dialWire(addr string) (*wireConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wireConn{c: c, w: bufio.NewWriter(c), buf: make([]byte, 64<<10)}, nil
}

func (wc *wireConn) get(key uint64) error {
	wc.w.WriteString("GET ")
	wc.w.WriteString(strconv.FormatUint(key, 10))
	wc.w.WriteByte('\n')
	return wc.w.Flush()
}

// line returns the next reply line (without its newline). A read
// deadline error leaves any partial line buffered for the next call.
func (wc *wireConn) line() (string, error) {
	for {
		if i := bytes.IndexByte(wc.buf[:wc.n], '\n'); i >= 0 {
			s := string(wc.buf[:i])
			wc.n = copy(wc.buf, wc.buf[i+1:wc.n])
			return s, nil
		}
		if wc.n == len(wc.buf) {
			return "", errors.New("reply line too long")
		}
		m, err := wc.c.Read(wc.buf[wc.n:])
		wc.n += m
		if err != nil {
			return "", err
		}
	}
}

// stats sends STATS and parses the reply's k=v fields.
func (wc *wireConn) stats() (map[string]string, error) {
	if _, err := wc.w.WriteString("STATS\n"); err != nil {
		return nil, err
	}
	if err := wc.w.Flush(); err != nil {
		return nil, err
	}
	l, err := wc.line()
	if err != nil {
		return nil, err
	}
	m := map[string]string{}
	for _, f := range strings.Fields(l) {
		if k, v, ok := strings.Cut(f, "="); ok {
			m[k] = v
		}
	}
	return m, nil
}

// wireOracle holds the key stream over hbserve's dataset, which hbserve
// generates from the same seed with the same generator.
type wireOracle struct{ keys []uint64 }

func (o *wireOracle) check(key uint64, line string) bool {
	v, ok := strings.CutPrefix(line, "VALUE ")
	if !ok {
		return false
	}
	got, err := strconv.ParseUint(v, 10, 64)
	return err == nil && got == workload.ValueFor(key)
}

// wireClosed drives every connection closed-loop with wireDepth
// pipelined GETs for dur and returns the GETs per second in each
// rateWindow.
func wireClosed(conns []*wireConn, o *wireOracle, tl *tally, tr *tracer, dur time.Duration, base uint64) ([]float64, error) {
	var wg sync.WaitGroup
	curves := make([][]point, len(conns))
	errs := make([]error, len(conns))
	start := time.Now()
	for c, wc := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pos := base + uint64(c)
			type req struct {
				key uint64
				t0  int64
			}
			ring := make([]req, 0, wireDepth)
			send := func() error {
				k := o.keys[pos%uint64(len(o.keys))]
				pos += uint64(len(conns))
				r := req{key: k}
				if tr != nil {
					r.t0 = tr.now()
				}
				ring = append(ring, r)
				return wc.get(k)
			}
			for range wireDepth {
				if errs[c] = send(); errs[c] != nil {
					return
				}
			}
			var n int64
			curves[c] = []point{{0, 0}}
			for len(ring) > 0 {
				l, err := wc.line()
				if err != nil {
					errs[c] = err
					return
				}
				r := ring[0]
				ring = ring[1:]
				tl.count(o.check(r.key, l))
				if tr != nil {
					tr.add(0, 0, "hbserve.rtt", r.t0, tr.now(), -1)
				}
				n++
				el := time.Since(start)
				if el < dur {
					curves[c] = append(curves[c], point{el, n})
					if errs[c] = send(); errs[c] != nil {
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return windowRates(curves, dur), nil
}

// wireOpen sends GETs at a fixed total rate for dur, each connection
// owning every len(conns)-th slot of one schedule, and times each reply
// from its due time. With conns nil it only walks the schedule (the
// generator's dry run).
func wireOpen(conns []*wireConn, gens int, o *wireOracle, tl *tally, tr *tracer, rate float64, dur time.Duration, base uint64) (lat latWindows, late []int64, err error) {
	lat.w = latWindow(rate, dur)
	var wg sync.WaitGroup
	var mu sync.Mutex
	errs := make([]error, gens)
	start := time.Now()
	period := float64(time.Second) / rate
	total := int(rate*dur.Seconds()) / gens
	for g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			due := func(i int) time.Duration { return time.Duration(float64(i*gens+g) * period) }
			var wc *wireConn
			if conns != nil {
				wc = conns[g]
				defer wc.c.SetReadDeadline(time.Time{})
			}
			type req struct {
				key uint64
				due time.Duration
			}
			var pend []req
			myLat := latWindows{w: lat.w}
			var myLate []int64
			next := 0
			for next < total || len(pend) > 0 {
				now := time.Since(start)
				for next < total && due(next) <= now {
					d := due(next)
					k := o.keys[(base+uint64(next*gens+g))%uint64(len(o.keys))]
					next++
					if wc == nil {
						continue
					}
					if tr != nil {
						myLate = append(myLate, int64(time.Since(start)-d))
					}
					if errs[g] = wc.get(k); errs[g] != nil {
						return
					}
					pend = append(pend, req{k, d})
				}
				if next == total && len(pend) == 0 {
					break
				}
				wait := time.Hour
				if next < total {
					wait = due(next) - time.Since(start)
				}
				if wait <= 0 {
					continue
				}
				if wc == nil || len(pend) == 0 {
					time.Sleep(wait)
					continue
				}
				wc.c.SetReadDeadline(time.Now().Add(wait))
				l, err := wc.line()
				if err != nil {
					if ne, ok := err.(net.Error); ok && ne.Timeout() {
						continue
					}
					errs[g] = err
					return
				}
				r := pend[0]
				pend = pend[1:]
				end := time.Since(start)
				myLat.add(r.due, end-r.due)
				if tr != nil {
					tr.add(0, 0, "hbserve.rtt", int64(start.Sub(tr.t0)+r.due), int64(start.Sub(tr.t0)+end), -1)
				}
				tl.count(o.check(r.key, l))
			}
			mu.Lock()
			lat.merge(myLat)
			late = append(late, myLate...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return latWindows{}, nil, e
		}
	}
	return lat, late, nil
}

// wireOpenResult is one latency round's measurements.
type wireOpenResult struct {
	lat       latWindows
	late      []int64
	cpu, wall time.Duration // CPU of the bench process plus hbserve
}

func wireOpenPhase(h *hbserve, conns []*wireConn, o *wireOracle, tl *tally, tr *tracer, dur time.Duration, base uint64) (wireOpenResult, error) {
	hc0, _, err := h.procStat()
	if err != nil {
		return wireOpenResult{}, err
	}
	c0, t0 := cpuTime(), time.Now()
	lat, late, err := wireOpen(conns, wireConns, o, tl, tr, wireRate, dur, base)
	if err != nil {
		return wireOpenResult{}, err
	}
	wall := time.Since(t0)
	hc1, _, err := h.procStat()
	if err != nil {
		return wireOpenResult{}, err
	}
	return wireOpenResult{lat, late, cpuTime() - c0 + hc1 - hc0, wall}, nil
}

func statDelta(a, b map[string]string, k string) float64 {
	x, _ := strconv.ParseFloat(a[k], 64)
	y, _ := strconv.ParseFloat(b[k], 64)
	return y - x
}

func runWire(cfg *runConfig, rep *report) error {
	if cfg.hbserve == "" {
		return fmt.Errorf("wire-get-1m needs -hbserve")
	}

	pairs := workload.Dataset[uint64](workload.Uniform, wirePairs, cfg.seed)
	r := workload.NewRNG(cfg.seed ^ 0x5eed)
	o := &wireOracle{keys: make([]uint64, 1<<16)}
	for i := range o.keys {
		o.keys[i] = pairs[r.Intn(len(pairs))].Key
	}

	var h *hbserve
	var setups []float64
	for range wireSetup {
		if h != nil {
			h.stop()
		}
		t0 := time.Now()
		var err error
		if h, err = startHbserve(cfg.hbserve, cfg.seed); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer h.stop()
	rep.set("setup_s", medianF(setups))
	_, rss, err := h.procStat()
	if err != nil {
		return err
	}
	rep.set("mem_mb", rss)

	conns := make([]*wireConn, wireConns)
	for i := range conns {
		if conns[i], err = dialWire(h.addr); err != nil {
			return err
		}
		defer conns[i].c.Close()
	}
	tl := &rep.tally
	step := cfg.dur / (2 * rounds)
	if _, err := wireClosed(conns, o, tl, nil, 250*time.Millisecond, 0); err != nil {
		return err
	}
	var plain float64
	if cfg.tr != nil {
		rates, err := wireClosed(conns, o, tl, nil, cfg.dur/4, 1<<40)
		if err != nil {
			return err
		}
		plain = medianF(rates)
	}
	var (
		pool      pooled
		stats     = map[string]float64{}
		srvCPU    time.Duration
		gets      int64
		capWall   time.Duration
		late      []int64
		cpu, wall time.Duration
	)
	for r := range rounds {
		s0, err := conns[0].stats()
		if err != nil {
			return err
		}
		cpu0, _, err := h.procStat()
		if err != nil {
			return err
		}
		a0, t0 := tl.attempted, time.Now()
		rates, err := wireClosed(conns, o, tl, cfg.tr, step, 2<<40+uint64(r)<<32)
		if err != nil {
			return err
		}
		capWall += time.Since(t0)
		gets += tl.attempted - a0
		cpu1, _, err := h.procStat()
		if err != nil {
			return err
		}
		s1, err := conns[0].stats()
		if err != nil {
			return err
		}
		pool.rates = append(pool.rates, rates...)
		srvCPU += cpu1 - cpu0
		for _, k := range []string{"batches", "batched", "folded", "probes", "saved", "h2d", "d2h", "kernels"} {
			stats[k] += statDelta(s0, s1, k)
		}

		open, err := wireOpenPhase(h, conns, o, tl, cfg.tr, step, 3<<40+uint64(r)<<32)
		if err != nil {
			return err
		}
		pool.addLat(open.lat, step)
		late = append(late, open.late...)
		cpu += open.cpu
		wall += open.wall
	}
	pool.report(rep)
	if cfg.tr == nil {
		return nil
	}
	// The generators' share: their dry-run CPU rate over the latency
	// rounds' CPU rate, bench process and hbserve together.
	c0, w0 := cpuTime(), time.Now()
	if _, _, err := wireOpen(nil, wireConns, o, tl, nil, wireRate, cfg.dur/4, 3<<40); err != nil {
		return err
	}
	dryRate := float64(cpuTime()-c0) / time.Since(w0).Seconds()
	rep.set("bench.gen_cpu_share", ratio(dryRate, float64(cpu)/wall.Seconds()))
	rep.set("bench.late_p99_us", pct(late, 0.99)/1e3)
	rep.set("bench.trace_overhead", ratio(medianF(pool.rates), plain))
	batches, batched := stats["batches"], stats["batched"]
	probes, saved := stats["probes"], stats["saved"]
	rep.set("hbserve.keys_per_flush", ratio(float64(gets), batches))
	rep.set("hbserve.server_cpu_us_per_op", ratio(float64(srvCPU)/1e3, float64(gets)))
	rep.set("coalescer.keys_per_flush", ratio(batched, batches))
	rep.set("coalescer.fold_ratio", ratio(stats["folded"], batched))
	rep.set("coalescer.flushes_per_s", batches/capWall.Seconds())
	rep.set("gpusim.node_probes_per_lookup", ratio(probes, batched))
	rep.set("gpusim.probes_saved_ratio", ratio(saved, probes+saved))
	rep.set("gpusim.h2d_bytes_per_lookup", ratio(stats["h2d"], batched))
	rep.set("gpusim.d2h_bytes_per_lookup", ratio(stats["d2h"], batched))
	rep.set("gpusim.kernels_per_flush", ratio(stats["kernels"], batches))
	return nil
}
