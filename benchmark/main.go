// Command benchmark is the repository's benchmark: four fixed workloads on
// the FLBooster profile, measured on both clocks the system has (modelled
// device/link time and host wall time), with each layer's cost visible under
// the end-to-end numbers. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md in this directory defines them.
//
//	go run ./benchmark                                  # all four, end to end
//	go run ./benchmark -workload cohort_tree_128 -trace 1
//	go run ./benchmark -repeat 2 -check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run is main without the process exit, so bench_test.go drives the same
// path the command line does.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var o options
	workload := fs.String("workload", "", "run one workload by name (default: all four)")
	fs.Uint64Var(&o.seed, "seed", 1, "seeds Profile.Seed, the dataset and the gradient phase")
	fs.Float64Var(&o.seconds, "seconds", 12, "how long each workload's timed steps run")
	fs.IntVar(&o.steps, "steps", 0, "pin the timed step count instead of -seconds (changes the sample count only, never a workload's shape)")
	trace := fs.Int("trace", 0, "1 runs the traced pass: per-layer metrics, probes and a trace file per workload")
	repeat := fs.Int("repeat", 1, "run this many full sets, each on fresh contexts")
	check := fs.Bool("check", false, "with -repeat: fail if the sets disagree by more than a metric's bound")
	fs.BoolVar(&o.smoke, "smoke", false, "seconds-not-minutes sizing (256-bit keys, small shapes) for tests")
	fs.StringVar(&o.outDir, "out", filepath.Join("benchmark", "out"), "directory for result.json and trace files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace takes 0 or 1, got %d", *trace)
	}
	if *repeat < 1 || o.seconds <= 0 || o.steps < 0 {
		return fmt.Errorf("-repeat and -seconds must be positive and -steps non-negative")
	}
	o.traced = *trace == 1
	if o.smoke && o.steps == 0 {
		o.steps = 2
	}

	var selected []spec
	for _, s := range specs(o.smoke) {
		if *workload == "" || s.name == *workload {
			selected = append(selected, s)
		}
	}
	if selected == nil {
		return fmt.Errorf("unknown workload %q", *workload)
	}

	env := environment()
	for _, k := range sortedKeys(env) {
		fmt.Fprintf(w, "env %s %s\n", k, env[k])
	}
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	var sets [][]*result
	for set := 0; set < *repeat; set++ {
		var results []*result
		for i, s := range selected {
			so := o
			if set > 0 && o.steps == 0 {
				// Later sets take the first set's step count, so the modelled
				// metrics of the same seed can be compared digit for digit.
				so.steps = sets[0][i].Attempted
			}
			res, err := runWorkload(s, so)
			if err != nil {
				return err
			}
			printResult(w, res, defs)
			results = append(results, res)
		}
		sets = append(sets, results)
	}
	if err := writeResults(filepath.Join(o.outDir, "result.json"), env, o, sets); err != nil {
		return err
	}
	var problems []string
	if *repeat > 1 {
		problems = compareSets(w, sets, defs, *check)
	}
	last := sets[len(sets)-1]
	if len(last) == 1 && *repeat == 1 {
		if err := printContractLine(w, last[0], defs); err != nil {
			return err
		}
	}
	for _, results := range sets {
		for _, r := range results {
			if r.Failed > 0 {
				problems = append(problems, fmt.Sprintf("%s: %d of %d steps failed (%s)", r.Workload, r.Failed, r.Attempted, r.Labels["first_failure"]))
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return nil
}

// environment records what the host numbers depend on.
func environment() map[string]string {
	env := map[string]string{
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env["cpu"] = strings.Join(strings.Fields(strings.TrimLeft(name, " \t:")), "_")
				break
			}
		}
	}
	return env
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func unitOf(name string) string {
	for _, table := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range table {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return unitRatio // failed_share
}

// alsoPrinted are the unbounded host-clock readings and the failure share an
// untraced run prints next to the end-to-end metrics it owes.
var alsoPrinted = []string{"step.wall_s", "step.wall_p90_s", "step.values_per_wall_s", "failed_share"}

// printResult prints every metric the pass owes as "workload metric value
// unit", then the unbounded readings, the step count and the labels.
func printResult(w io.Writer, r *result, defs []metricDef) {
	owed := map[string]bool{}
	for _, d := range defs {
		owed[d.Name] = true
		fmt.Fprintf(w, "%s %s %v %s\n", r.Workload, d.Name, r.Metrics[d.Name], d.Unit)
	}
	for _, name := range alsoPrinted {
		if v, ok := r.Metrics[name]; ok && !owed[name] {
			fmt.Fprintf(w, "%s %s %v %s\n", r.Workload, name, v, unitOf(name))
		}
	}
	fmt.Fprintf(w, "%s steps %d count\n", r.Workload, r.Attempted)
	for _, k := range sortedKeys(r.Labels) {
		fmt.Fprintf(w, "%s %s %s label\n", r.Workload, k, r.Labels[k])
	}
	for _, name := range []string{"ladder.he_explained_share", "ladder.step_explained_share"} {
		if v := r.Metrics[name]; owed[name] && (v < 0.8 || v > 1.25) {
			fmt.Fprintf(w, "%s %s outside [0.8, 1.25]: a layer is unexplained label\n", r.Workload, name)
		}
	}
}

// printContractLine prints the one JSON object a single-workload run ends
// with: exactly the metrics the pass owes, by the names in BENCHMARK.json.
func printContractLine(w io.Writer, r *result, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{r.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeResults(path string, env map[string]string, o options, sets [][]*result) error {
	data, err := json.MarshalIndent(map[string]any{
		"env": env, "seed": o.seed, "traced": o.traced, "smoke": o.smoke, "sets": sets,
	}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// exactAcrossSets are the metrics the same code on the same seed must
// reproduce digit for digit: they come from the cost model and the codec,
// not from the host clock.
var exactAcrossSets = map[string]bool{
	"step_sim_s": true, "wire_bytes_per_step": true, "failed_share": true, "models.loss_bias": true,
}

// compareSets prints each metric's min/median/max over the sets and, when
// checking, lists every metric whose sets disagree: at all for an exact
// metric, by more than its bound for a bounded one.
func compareSets(w io.Writer, sets [][]*result, defs []metricDef, check bool) []string {
	var problems []string
	for i, first := range sets[0] {
		names := map[string]float64{} // metric -> bound (0: none)
		for _, d := range defs {
			names[d.Name] = d.Bound
		}
		for name := range exactAcrossSets {
			names[name] = 0
		}
		for _, name := range sortedKeys(names) {
			vals := make([]float64, len(sets))
			for k, set := range sets {
				vals[k] = set[i].Metrics[name]
			}
			sort.Float64s(vals)
			lo, hi := vals[0], vals[len(vals)-1]
			fmt.Fprintf(w, "%s %s min %v median %v max %v %s\n", first.Workload, name, lo, median(vals), hi, unitOf(name))
			if !check {
				continue
			}
			switch bound := names[name]; {
			case exactAcrossSets[name] && lo != hi:
				problems = append(problems, fmt.Sprintf("%s %s differs across sets of the same seed: %v vs %v", first.Workload, name, lo, hi))
			case !exactAcrossSets[name] && bound > 0 && hi-lo > bound*median(vals):
				problems = append(problems, fmt.Sprintf("%s %s sets disagree by more than %v: %v vs %v", first.Workload, name, bound, lo, hi))
			}
		}
	}
	return problems
}
