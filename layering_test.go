package powerperf

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// layerRules are the package-graph rules the non-test sources must
// keep. Each rule forbids direct imports from every listed package to
// every forbidden one.
//
// The paper-model packages compute the study; serving, scheduling,
// storage, and observability are built on top of them and must never
// leak back in. telemetry stays allowed: harness spans use it.
//
// The scheduler must not depend on the fleet monitor: breakers are fed
// by its own /healthz prober, and the monitor scrapes the scheduler's
// metrics page from the outside.
//
// A third rule — observability leaf packages (slo, traceanalytics,
// profiling) never import monitor — waits until the detector/rule state
// machine moves out of monitor into a leaf package of its own; slo
// still builds its burn-rate alerts on monitor's detector today.
var layerRules = []struct {
	name      string
	packages  []string
	forbidden []string
}{
	{
		name: "paper model never imports serving or observability",
		packages: []string{
			"proc", "power", "sim", "sensor", "workload", "jvm", "native",
			"harness", "experiments", "fastrand",
		},
		forbidden: []string{
			"service", "cluster", "store", "monitor", "slo", "profiling",
			"traceanalytics", "chaoshttp", "tune", "trend",
		},
	},
	{
		name:      "scheduler never imports the fleet monitor",
		packages:  []string{"cluster"},
		forbidden: []string{"monitor"},
	},
}

// TestImportLayering parses the imports of every non-test Go file in
// each ruled package and fails on any forbidden edge.
func TestImportLayering(t *testing.T) {
	for _, rule := range layerRules {
		forbidden := make(map[string]bool, len(rule.forbidden))
		for _, f := range rule.forbidden {
			forbidden["repro/internal/"+f] = true
		}
		for _, pkg := range rule.packages {
			files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
			if err != nil {
				t.Fatal(err)
			}
			if len(files) == 0 {
				t.Fatalf("%s: package internal/%s has no Go files", rule.name, pkg)
			}
			for _, path := range files {
				if strings.HasSuffix(path, "_test.go") {
					continue
				}
				src, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				fset := token.NewFileSet()
				f, err := parser.ParseFile(fset, path, src, parser.ImportsOnly)
				if err != nil {
					t.Fatal(err)
				}
				for _, imp := range f.Imports {
					ip, err := strconv.Unquote(imp.Path.Value)
					if err != nil {
						t.Fatal(err)
					}
					if forbidden[ip] {
						t.Errorf("%s: %s imports %s (line %d)",
							rule.name, path, ip, fset.Position(imp.Path.Pos()).Line)
					}
				}
			}
		}
	}
}
