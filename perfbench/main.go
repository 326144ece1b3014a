// Command perfbench is the repository's benchmark: it generates a seeded
// workload, runs it against the deployed retrieval stack (or, for
// paper-tables, the §3 list operators and the §4 SQL baseline), checks
// every output for correctness, and prints each metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
// with -trace 1 a separate traced run replays the workload down the layer
// ladder and reports the per-layer metrics. Run it from the repository root
// through perfbench/run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload popular-shapes --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// report collects metrics and the run's correctness accounting.
type report struct {
	metrics   map[string]metric
	attempted int
	failed    int
	wrong     []string // correctness failures, which fail the run
	notes     []string // human-readable lines printed before the result
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func main() {
	workload := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer ladder instead of the end-to-end measurement")
	workdir := flag.String("workdir", ".bench_build", "directory for data directories and temporary files")
	flag.Parse()

	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	dir, err := filepath.Abs(filepath.Join(*workdir, "run-"+*workload))
	if err == nil {
		err = os.RemoveAll(dir)
	}
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: work directory: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, workdir: dir}
	printEnv(*workload, cfg)
	rep := newReport()
	if err := w.run(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	names := endToEndNames
	if cfg.traced {
		names = perLayerNames
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(rep.wrong) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metric{}}
	for _, n := range rep.notes {
		fmt.Println("# " + n)
	}
	for _, name := range sortedKeys(rep.metrics) {
		m := rep.metrics[name]
		fmt.Printf("%-40s %14.6g %s\n", name, m.Value, m.Unit)
	}
	var missing []string
	for _, name := range names {
		m, ok := rep.metrics[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		out.Metrics[name] = m
	}
	if len(missing) > 0 {
		rep.wrong = append(rep.wrong, "metrics not measured: "+strings.Join(missing, ", "))
		out.Correct = false
	}
	for _, msg := range rep.wrong {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED: "+msg)
	}
	if rep.attempted < 1 {
		out.Correct = false
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.RemoveAll(dir)
		os.Exit(1)
	}
}
