package main

import (
	"sort"
	"time"
)

// The end-to-end figures are medians over fixed windows of a phase, so a
// short stall of the shared host moves one window, not the figure.

// rateWindow is the window of a closed-loop throughput sample.
const rateWindow = 25 * time.Millisecond

// latWindow returns the open-loop latency window for a request rate over
// a phase of length dur: at least 20ms, and long enough to hold 250
// requests, so each window's p99 has two samples beyond it (pooled over
// the phase, far more). On a small shared host the whole process stalls for a few
// milliseconds several times a second (idle vCPUs wake late), and one
// stall lifts its window's p99; short windows keep most windows clear of
// stalls, so the median over windows reports the typical window, not the
// stall count. A phase too short for five such windows is one window.
func latWindow(rate float64, dur time.Duration) time.Duration {
	w := max(20*time.Millisecond, time.Duration(250/rate*float64(time.Second)))
	if dur < 5*w {
		return dur
	}
	return w
}

// point is a client's cumulative completions at a time since the phase
// started.
type point struct {
	t time.Duration
	n int64
}

// at interpolates a completion curve at time t.
func at(c []point, t time.Duration) float64 {
	i := sort.Search(len(c), func(i int) bool { return c[i].t >= t })
	switch {
	case i == 0:
		return float64(c[0].n)
	case i == len(c):
		return float64(c[len(c)-1].n)
	}
	a, b := c[i-1], c[i]
	return float64(a.n) + float64(b.n-a.n)*float64(t-a.t)/float64(b.t-a.t)
}

// windowRates returns, for each whole rateWindow of [0, end), the
// completions per second summed over the clients' curves.
func windowRates(curves [][]point, end time.Duration) []float64 {
	var rates []float64
	for a := time.Duration(0); a+rateWindow <= end; a += rateWindow {
		var n float64
		for _, c := range curves {
			n += at(c, a+rateWindow) - at(c, a)
		}
		rates = append(rates, n/rateWindow.Seconds())
	}
	return rates
}

// latWindows bins latency samples by their request's due time.
type latWindows struct {
	w    time.Duration
	bins [][]int64
}

func (lw *latWindows) add(due, lat time.Duration) {
	i := int(due / lw.w)
	for len(lw.bins) <= i {
		lw.bins = append(lw.bins, nil)
	}
	lw.bins[i] = append(lw.bins[i], int64(lat))
}

// merge adds o's samples, window by window, to lw's.
func (lw *latWindows) merge(o latWindows) {
	for i, b := range o.bins {
		for len(lw.bins) <= i {
			lw.bins = append(lw.bins, nil)
		}
		lw.bins[i] = append(lw.bins[i], b...)
	}
}

// rounds is how many alternating capacity and latency phases a run
// makes. Noisy host periods of a few seconds then land in some windows
// of both measurements instead of all of one, and the medians over
// windows pooled from every round leave them out.
const rounds = 4

// pooled collects the windows of a run's rounds.
type pooled struct {
	rates []float64 // closed-loop window rates
	lat   []float64 // per latency window: p50
	p99   []float64 // per latency window: p99
	all   []int64   // every latency sample
}

// addLat pools the whole windows of one latency round of length end.
func (p *pooled) addLat(lw latWindows, end time.Duration) {
	for i, b := range lw.bins {
		if time.Duration(i+1)*lw.w <= end && len(b) > 0 {
			p.lat = append(p.lat, pct(b, 0.50))
			p.p99 = append(p.p99, pct(b, 0.99))
		}
		p.all = append(p.all, b...)
	}
}

// report sets the end-to-end figures from the pooled windows.
func (p *pooled) report(rep *report) {
	rep.set("lookup_mqps", medianF(p.rates)/1e6)
	rep.set("lookup_p50_us", medianF(p.lat)/1e3)
	rep.set("lookup_p99_us", medianF(p.p99)/1e3)
	rep.set("lookup_p99_all_us", pct(p.all, 0.99)/1e3)
}
