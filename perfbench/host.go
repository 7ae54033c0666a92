package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// host describes the machine a run measured on. Timer granularity is
// the median delay of a 50µs Go timer: every coalescer deadline window
// shorter than it is quantised up to it.
type host struct {
	NProc       int     `json:"nproc"`
	GoMaxProcs  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	CPUModel    string  `json:"cpu_model"`
	TimerGranUs float64 `json:"timer_granularity_us"`
}

func (h host) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q timer_granularity_us=%.1f",
		h.NProc, h.GoMaxProcs, h.GoVersion, h.CPUModel, h.TimerGranUs)
}

func hostFacts() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
	}
	const samples = 21
	lags := make([]float64, 0, samples)
	t := time.NewTimer(time.Hour)
	for range samples {
		t0 := time.Now()
		t.Reset(50 * time.Microsecond)
		<-t.C
		lags = append(lags, float64(time.Since(t0))/1e3)
	}
	h.TimerGranUs = medianF(lags)
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks returns the machine's steal and total CPU ticks from
// /proc/stat; the steal share over a run says how much of the host's CPU
// a hypervisor gave to someone else.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// cpuTime returns the CPU time this process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pct returns the q-quantile (nearest rank) of xs, sorting xs in place.
func pct(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return float64(xs[min(max(i, 0), len(xs)-1)])
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
