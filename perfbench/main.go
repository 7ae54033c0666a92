// Command perfbench is the repository benchmark. It runs one workload of
// the serving stack from a seeded, precomputed input stream, checks every
// reply, and prints its metrics by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The metric sets come from BENCHMARK.json (-spec): with -trace 0 the
// metrics are its end_to_end set; with -trace 1 the run records spans
// around the calls into each layer, writes them to a span file under
// -workdir, and reports its per_layer set, with 0 for a layer the
// workload does not reach. README.md in this directory defines the
// workloads and metrics.
//
// Usage (normally through run.py, which builds this binary and hbserve):
//
//	perfbench -workload read-uniform-8m -seed 1 -seconds 10 -trace 0 \
//	    -hbserve .bench_build/hbserve -workdir .bench_build/work
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json this program reads: the metric sets
// of an untraced run (end_to_end) and of a traced run (per_layer).
type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var sp spec
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, &sp)
	}
	return sp, err
}

// extraUnits gives units for metrics printed in the text report only.
// failed_frac is 0 on a healthy run, and the JSON carries it as
// failed/attempted. The p99s spread too widely between runs on a shared
// 2-core host to be gated (see README.md); host_steal_share tells a run
// measured in a noisy host period from a quiet one.
var extraUnits = map[string]string{
	"failed_frac":       "ratio",
	"lookup_p99_us":     "us",
	"unchecked":         "count",
	"lookup_p99_all_us": "us",
	"host_steal_share":  "ratio",
}

// runConfig is what a workload needs from the command line.
type runConfig struct {
	seed    uint64
	dur     time.Duration
	hbserve string
	workDir string
	tr      *tracer // nil in an untraced run
}

// report collects one run's outcome.
type report struct {
	tally
	vals map[string]float64
}

func (r *report) set(name string, v float64) { r.vals[name] = v }

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*runConfig, *report) error{
	"read-uniform-8m":  runReadUniform,
	"read-zipf-64k":    runReadZipf,
	"mixed-durable-2m": runMixed,
	"wire-get-1m":      runWire,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (read-uniform-8m | read-zipf-64k | mixed-durable-2m | wire-get-1m)")
		seed    = flag.Uint64("seed", 1, "input seed: equal seeds give equal inputs")
		seconds = flag.Int("seconds", 10, "measured seconds per run, split across the run's phases")
		trace   = flag.Int("trace", 0, "1 = traced run: record spans and report the per-layer metrics")
		hbserve = flag.String("hbserve", "", "hbserve binary (wire-get-1m)")
		workDir = flag.String("workdir", "", "directory for data dirs and span files")
		specAt  = flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to report")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *workDir == "" {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d, workdir %q)\n", *name, *seconds, *trace, *workDir)
		os.Exit(2)
	}
	sp, err := loadSpec(*specAt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := &runConfig{seed: *seed, dur: time.Duration(*seconds) * time.Second, hbserve: *hbserve, workDir: *workDir}
	if *trace == 1 {
		cfg.tr = newTracer()
	}
	host := hostFacts()
	fmt.Printf("host %s\n", host)
	fmt.Printf("run workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)

	rep := &report{vals: map[string]float64{}}
	steal0, total0 := cpuTicks()
	if err := run(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	rep.set("failed_frac", float64(rep.failed())/float64(max(rep.attempted, 1)))
	rep.set("unchecked", float64(rep.unchecked))
	steal1, total1 := cpuTicks()
	rep.set("host_steal_share", ratio(float64(steal1-steal0), float64(total1-total0)))

	defs := sp.EndToEnd
	if cfg.tr != nil {
		defs = sp.PerLayer
		path := filepath.Join(*workDir, "spans-"+*name+".json")
		selfs, err := cfg.tr.writeFile(path, host, *name, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: span file: %v\n", err)
			os.Exit(1)
		}
		for _, s := range selfs {
			fmt.Printf("span %-16s n=%-8d total_ms=%.3f self_ms=%.3f\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
		}
		fmt.Printf("spans %s (%d recorded, %d dropped)\n", path, cfg.tr.len(), cfg.tr.dropped)
	}
	printReport(rep, sp, defs)
	if rep.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no request was attempted")
		os.Exit(1)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed() == 0, rep.attempted, rep.failed(), map[string]metric{}}
	for _, d := range defs {
		v, ok := rep.vals[d.Name]
		if !ok && cfg.tr == nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *name, d.Name)
			os.Exit(1)
		}
		out.Metrics[d.Name] = metric{v, d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints every measured value by name and unit: the
// requested set first, then whatever else the workload measured.
func printReport(rep *report, sp spec, defs []metricDef) {
	units := map[string]string{}
	for _, set := range [][]metricDef{sp.EndToEnd, sp.PerLayer} {
		for _, d := range set {
			units[d.Name] = d.Unit
		}
	}
	for k, u := range extraUnits {
		units[k] = u
	}
	seen := map[string]bool{}
	for _, d := range defs {
		seen[d.Name] = true
		fmt.Printf("metric %-32s %.6g %s\n", d.Name, rep.vals[d.Name], d.Unit)
	}
	var rest []string
	for k := range rep.vals {
		if !seen[k] {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	for _, k := range rest {
		fmt.Printf("info   %-32s %.6g %s\n", k, rep.vals[k], units[k])
	}
	fmt.Printf("requests attempted=%d failed=%d (wrong=%d errors=%d) unchecked=%d\n",
		rep.attempted, rep.failed(), rep.wrong, rep.errs, rep.unchecked)
}
