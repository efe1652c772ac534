// Command powerperf regenerates the paper's tables and figures from the
// simulated measurement stack.
//
// Usage:
//
//	powerperf [-seed N] [-csv DIR] [-full-table2] [artifact ...]
//	powerperf tune [-seed N] [-configs N] [-repeats N] [-backends N] [-grid quick|full] [-out FILE]
//	powerperf query [-store-dir DIR] [-rows|-aggregates] [-processor P] [-benchmark B] [-json]
//	powerperf trend [-store-dir DIR] [-filter-seed N] [-json]
//	powerperf slo [-daemon URL] [-json]
//
// Artifacts are table2, table3, table4, table5, fig1 .. fig12, or "all"
// (the default). With -csv, each artifact's data is also written as
// DIR/<artifact>.csv, mirroring the paper's companion dataset.
//
// The query subcommand inspects a powerperfd -store-dir study store
// offline (read-only, safe against a live daemon): the study inventory,
// filtered measurement rows, or the Section 2.6 aggregates recomputed
// from the stored bits. The trend subcommand replays the stored studies
// across the fleet's technology generations and reports how the
// measured energy/performance Pareto frontier drifted.
//
// The slo subcommand fetches a live daemon's /v1/sloz snapshot and
// renders its error budgets, burn rates, and breach exemplars (with
// ready-to-paste trace URLs) as a terminal table.
//
// The tune subcommand sweeps the serving pipeline's performance knobs
// (backend workers, cache shards, the scheduler's lease size) over a
// calibration grid against in-process backends, prints the scored grid,
// and emits the knee point as ready-to-paste powerperfd and fullstudy
// flags (plus a JSON report with -out). The knobs are pure scheduling:
// study bytes are identical at every point.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"os"
	"path/filepath"
	"strings"

	powerperf "repro"
	"repro/internal/profiling"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/tune"
)

var artifactOrder = []string{
	"table2", "table3", "table4", "table5",
	"fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
	"fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
	"section31", "jvms", "meters", "kernelbug", "heapsweep", "scaling", "breakdown", "findings",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("powerperf: ")
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "tune":
			runTune(os.Args[2:])
			return
		case "query":
			runQuery(os.Args[2:])
			return
		case "trend":
			runTrend(os.Args[2:])
			return
		case "slo":
			runSlo(os.Args[2:])
			return
		}
	}
	seed := flag.Int64("seed", 42, "study seed; the same seed reproduces every number")
	csvDir := flag.String("csv", "", "also write each artifact's data as CSV into this directory")
	fullT2 := flag.Bool("full-table2", false, "aggregate Table 2 over all 45 configurations instead of the 8 stock ones")
	plot := flag.Bool("plot", false, "also render ASCII charts for figures that have a graphical form")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProfiling, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProfiling(); err != nil {
			log.Fatal(err)
		}
	}()

	want := flag.Args()
	if len(want) == 0 || (len(want) == 1 && want[0] == "all") {
		want = artifactOrder
	}

	study, err := powerperf.NewStudy(*seed)
	if err != nil {
		log.Fatal(err)
	}
	r := &renderer{study: study, csvDir: *csvDir, fullT2: *fullT2}
	for _, name := range want {
		gen, ok := r.generators()[strings.ToLower(name)]
		if !ok {
			log.Fatalf("unknown artifact %q (want one of %s, or all)", name, strings.Join(artifactOrder, " "))
		}
		tbl, title, err := gen()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("\n%s\n\n", title)
		if err := tbl.Write(os.Stdout); err != nil {
			log.Fatal(err)
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, name, tbl); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
		}
		if *plot {
			if p, ok := r.plotters()[strings.ToLower(name)]; ok {
				if err := p(); err != nil {
					log.Fatalf("%s plot: %v", name, err)
				}
			}
		}
	}
}

// runTune drives the experiment-grid auto-tuner.
func runTune(args []string) {
	fs := flag.NewFlagSet("powerperf tune", flag.ExitOnError)
	seed := fs.Int64("seed", 42, "study seed for the calibration runs")
	configs := fs.Int("configs", 2, "stock configurations per calibration study (x 61 benchmarks)")
	repeats := fs.Int("repeats", 1, "cold-cache repeats per grid point; the fastest scores the point")
	backends := fs.Int("backends", 2, "in-process powerperfd instances per calibration fleet")
	gridName := fs.String("grid", "quick", "sweep to run: quick (batch sizes) or full (all knobs)")
	out := fs.String("out", "", "also write the full JSON report to this file")
	_ = fs.Parse(args)

	// Calibration backends are throwaway: their per-request access lines
	// would swamp the grid report, so only warnings get through.
	telemetry.SetLogLevel(slog.LevelWarn)

	var grid tune.Grid
	switch *gridName {
	case "quick":
		grid = tune.QuickGrid()
	case "full":
		grid = tune.FullGrid()
	default:
		log.Fatalf("unknown grid %q (want quick or full)", *gridName)
	}

	rep, err := tune.Run(context.Background(), tune.Config{
		Seed:     *seed,
		Configs:  *configs,
		Repeats:  *repeats,
		Backends: *backends,
		Logf: func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		},
	}, grid)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nswept %d grid points (%d cells each, %d backends, seed %d)\n\n",
		len(rep.Results), rep.Results[0].Cells, rep.Backends, rep.Seed)
	for _, r := range rep.Results {
		marker := " "
		if r.Point == rep.Knee {
			marker = "*"
		}
		fmt.Printf(" %s %-48s %8.3fs\n", marker, r.Point, r.Seconds)
	}
	fmt.Printf("\nknee: %s (%.3fs, best %.3fs)\n", rep.Knee, rep.KneeSeconds, rep.Best)
	fmt.Printf("  powerperfd %s\n", rep.PowerperfdFlags())
	fmt.Printf("  fullstudy  %s\n", rep.FullstudyFlags())
	for _, e := range rep.Env() {
		fmt.Printf("  %s\n", e)
	}

	if *out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("report written to %s", *out)
	}
}

func writeCSV(dir, name string, tbl *report.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tbl.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}
