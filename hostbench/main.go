// Command hostbench measures the host cost of running the ST-TCP
// simulator: wall time, rate, memory and allocation on four fixed
// simulated workloads (stream, fleet, churn, observed), driven in process
// through the testbed's public API. Virtual-time figures are the
// program's output, not its performance: they are checked for
// correctness and digested for determinism, never reported as metrics.
//
//	bash hostbench/run.sh --workload fleet --seed 42 --seconds 30 --trace 0
//
// With --trace 0 it repeats the workload for --seconds and prints the
// end-to-end metrics; with --trace 1 it runs the workload plain, traced
// (counting scheduler, CPU profile) and plain again, and prints the
// per-layer metrics. The last line of standard output is one JSON
// object. See NOTES.md beside this file for the workloads and the
// metrics, and for why stream fails its correctness gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics every workload reports with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"goodput_mib_s", "MiB/s"},
	{"peak_rss_mib", "MiB"},
	{"alloc_mib", "MiB"},
	{"ok_frac", "frac"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: stream, fleet, churn or observed")
	seed := fs.Int64("seed", 42, "seed every simulated input derives from")
	seconds := fs.Float64("seconds", 30, "host seconds to keep repeating the workload (--trace 0)")
	traceFlag := fs.Int("trace", 0, "1: plain, traced and plain runs, reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "hostbench: unknown workload %q\n", *name)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	return report(w.name, w.full, *seed, budget, *traceFlag == 1, stdout, stderr)
}

// report runs the workload shape sh, timed for budget or traced, prints
// one line per run and then the result line, and returns the exit code.
func report(name string, sh shape, seed int64, budget time.Duration, traced bool, stdout, stderr io.Writer) int {
	var res result
	var runs []timed
	var err error
	if traced {
		var m map[string]float64
		m, runs, err = tracedRun(sh, seed)
		if err == nil {
			res.Metrics = map[string]metricValue{}
			for _, d := range perLayerNames() {
				res.Metrics[d.name] = metricValue{m[d.name], d.unit}
			}
		}
	} else {
		res.Metrics, runs, err = timedRuns(sh, seed, budget)
	}
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %s: %v\n", name, err)
		return 1
	}
	res.Correct = true
	for i, r := range runs {
		o := r.out
		fmt.Fprintf(stdout, "%s seed=%d run=%d wall=%.4fs %v\n", name, seed, i, hostSeconds(r.wallNS), o)
		for _, p := range o.problems {
			fmt.Fprintf(stdout, "  FAIL %s\n", p)
		}
		res.Attempted += o.attempted
		res.Failed += o.attempted - o.ok
		if len(o.problems) > 0 || o.digest != runs[0].out.digest {
			res.Correct = false
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// timedRuns repeats a batch of timed set-ups and then the timed body
// until budget has passed (at least once), and reports medians.
func timedRuns(sh shape, seed int64, budget time.Duration) (map[string]metricValue, []timed, error) {
	var setups, walls, goodputs, allocs []float64
	var runs []timed
	var attempted, ok int
	start := hostNS()
	for len(runs) == 0 || hostNS()-start < int64(budget) {
		xs, err := timeSetups(sh, seed)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, xs...)
		_, t, err := runOnce(sh, seed, nil, nil)
		if err != nil {
			return nil, nil, err
		}
		wall := hostSeconds(t.wallNS)
		walls = append(walls, wall)
		goodputs = append(goodputs, sh.payloadMiB()/wall)
		allocs = append(allocs, float64(t.allocBytes)/(1<<20))
		attempted += t.out.attempted
		ok += t.out.ok
		runs = append(runs, t)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, nil, err
	}
	vals := map[string]float64{
		"setup_s":       median(setups),
		"wall_s":        median(walls),
		"goodput_mib_s": median(goodputs),
		"peak_rss_mib":  rss,
		"alloc_mib":     median(allocs),
		"ok_frac":       float64(ok) / float64(attempted),
	}
	m := map[string]metricValue{}
	for _, d := range endToEnd {
		m[d.name] = metricValue{vals[d.name], d.unit}
	}
	return m, runs, nil
}

// peakRSSMiB is the process's maximum resident set size.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}
