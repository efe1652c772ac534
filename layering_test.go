package powerperf

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// layerRules are the package-graph rules the non-test sources must
// keep. Each rule holds transitively: no listed package may reach a
// forbidden one through any chain of imports. A rule with only set
// instead forbids every internal package outside that list.
//
// The paper-model packages compute the study; serving, scheduling,
// storage, and observability are built on top of them and must never
// leak back in. telemetry stays allowed: harness spans use it.
//
// The fleet monitor sits at the top of the graph: it scrapes the
// scheduler and the daemons from the outside, and the daemon mounts
// its pages through Server.Handle. Nothing below it — the scheduler,
// the serving path, the observability packages, the alert core — may
// depend on it.
//
// The alert core is a leaf: its detector is shared by the monitor and
// the SLO engine, so it may build on stats and telemetry only.
var layerRules = []struct {
	name      string
	packages  []string
	forbidden []string
	only      []string
}{
	{
		name: "paper model never imports serving or observability",
		packages: []string{
			"proc", "power", "sim", "sensor", "workload", "jvm", "native",
			"harness", "experiments", "fastrand",
		},
		forbidden: []string{
			"service", "cluster", "store", "monitor", "slo", "profiling",
			"traceanalytics", "chaoshttp", "tune", "trend", "alert",
		},
	},
	{
		name:      "scheduler never imports the fleet monitor",
		packages:  []string{"cluster"},
		forbidden: []string{"monitor"},
	},
	{
		name:      "serving and observability leaves never import the fleet monitor",
		packages:  []string{"slo", "traceanalytics", "profiling", "service", "alert"},
		forbidden: []string{"monitor"},
	},
	{
		name:     "alert core imports only stats and telemetry",
		packages: []string{"alert"},
		only:     []string{"stats", "telemetry"},
	},
}

// internalImports parses the imports of every non-test Go file under
// internal/ and returns, per package name, the internal packages it
// imports directly.
func internalImports(t *testing.T) map[string][]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("internal", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	graph := map[string][]string{}
	seen := map[string]bool{}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		pkg := filepath.Base(filepath.Dir(path))
		if _, ok := graph[pkg]; !ok {
			graph[pkg] = nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			dep, ok := strings.CutPrefix(ip, "repro/internal/")
			if !ok || seen[pkg+"|"+dep] {
				continue
			}
			seen[pkg+"|"+dep] = true
			graph[pkg] = append(graph[pkg], dep)
		}
	}
	return graph
}

// reach returns every package reachable from root, each mapped to the
// import chain that first reached it (root first).
func reach(graph map[string][]string, root string) map[string][]string {
	paths := map[string][]string{root: {root}}
	queue := []string{root}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		for _, dep := range graph[pkg] {
			if _, ok := paths[dep]; ok {
				continue
			}
			paths[dep] = append(append([]string(nil), paths[pkg]...), dep)
			queue = append(queue, dep)
		}
	}
	return paths
}

// TestImportLayering builds the internal import graph from the parsed
// sources and fails on any package that reaches a forbidden one,
// printing the offending chain.
func TestImportLayering(t *testing.T) {
	graph := internalImports(t)
	for _, rule := range layerRules {
		for _, pkg := range rule.packages {
			if _, ok := graph[pkg]; !ok {
				t.Fatalf("%s: package internal/%s has no Go files", rule.name, pkg)
			}
			for dep, chain := range reach(graph, pkg) {
				if dep == pkg {
					continue
				}
				bad := slices.Contains(rule.forbidden, dep)
				if rule.only != nil {
					bad = !slices.Contains(rule.only, dep)
				}
				if bad {
					t.Errorf("%s: %s", rule.name, strings.Join(chain, " -> "))
				}
			}
		}
	}
}
