// Command perfbench is the repository's study benchmark: one process that
// runs a named workload from a seed, checks the outputs, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 27450, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
// with -trace 1 a separate traced run derives the per-layer ones. Run it
// through run.sh from the root of a checkout, which builds it first:
//
//	bash perfbench/run.sh --workload served_study --seed 42 --seconds 10 --trace 0
//
// --workload all runs every workload in turn. README.md lists the
// workloads, the metrics, and which layer metric should move which
// end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// config is one invocation's settings.
type config struct {
	seed    int64
	budget  time.Duration
	root    string // checkout root: dataset/ is read from here
	workDir string // scratch for study stores, removed on exit
	nproc   int
}

// namedWorkload is one named input set. timed measures the end-to-end
// metrics with no tracer armed; traced derives the per-layer ones.
type namedWorkload struct {
	name   string
	timed  func(ctx context.Context, c *config) (*result, error)
	traced func(ctx context.Context, c *config) (*result, error)
}

var workloads = []namedWorkload{
	{"local_study", timedLocal, tracedLocal},
	{"served_study", timedServed, tracedServed},
	{"warm_queries", timedWarm, tracedWarm},
}

func main() {
	name := flag.String("workload", "", "workload: local_study, served_study, warm_queries, or all")
	seed := flag.Int64("seed", 42, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long one run measures")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	var selected []namedWorkload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", *name)
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res, err := run(root, selected, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes the selected workloads from the checkout at root and
// merges their results; with more than one workload, metric names are
// prefixed by the workload.
func run(root string, selected []namedWorkload, seed int64, budget time.Duration, trace bool) (*result, error) {
	// The daemons log one access line per request at info level, as
	// powerperfd does; the lines are formatted but not kept.
	telemetry.SetLogOutput(io.Discard)
	workDir := filepath.Join(root, ".bench_build", "perfbench-work", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	host := fingerprint()
	hostJSON, err := json.Marshal(host)
	if err != nil {
		return nil, err
	}
	fmt.Println("host", string(hostJSON))

	c := &config{seed: seed, budget: budget, root: root, workDir: workDir, nproc: runtime.NumCPU()}
	merged := &result{Correct: true}
	for _, w := range selected {
		fn := w.timed
		if trace {
			fn = w.traced
		}
		res, err := fn(context.Background(), c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		printMetrics(w.name, res)
		merged.Correct = merged.Correct && res.Correct
		merged.Attempted += res.Attempted
		merged.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(selected) > 1 {
				k = w.name + "." + k
			}
			merged.set(k, m.Value, m.Unit)
		}
	}
	return merged, nil
}

// printMetrics writes one human-readable line per metric, plus the
// failed share, ahead of the JSON result line.
func printMetrics(name string, r *result) {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := r.Metrics[k]
		fmt.Printf("metric %-13s %-28s %14.6g %s\n", name, k, m.Value, m.Unit)
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Printf("metric %-13s %-28s %14.6g %s (failed %d of %d attempted ops, correct=%v)\n",
		name, "failed_frac", frac, "frac", r.Failed, r.Attempted, r.Correct)
}

// hostInfo identifies the machine a result came from, so a baseline
// and a change can be shown to share a host.
type hostInfo struct {
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	NProc  int    `json:"nproc"`
	CPU    string `json:"cpu"`
}

func fingerprint() hostInfo {
	return hostInfo{
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		NProc:  runtime.NumCPU(),
		CPU:    strings.TrimSpace(cpuModel()),
	}
}
