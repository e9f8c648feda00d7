package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"flbooster/internal/fl"
)

func smokeOptions(t *testing.T, seed uint64, traced bool) options {
	return options{seed: seed, steps: 2, traced: traced, smoke: true, outDir: t.TempDir()}
}

// TestSmokeEndToEnd runs every workload at the smoke sizing and holds the
// untraced pass to what it owes: every end-to-end metric, positive (the
// contract forbids metrics that read 0), no failed step, and modelled time
// and wire bytes reproduced digit for digit by a second run of the seed.
func TestSmokeEndToEnd(t *testing.T) {
	for _, s := range specs(true) {
		first, err := runWorkload(s, smokeOptions(t, 7, false))
		if err != nil {
			t.Fatal(err)
		}
		again, err := runWorkload(s, smokeOptions(t, 7, false))
		if err != nil {
			t.Fatal(err)
		}
		if first.Failed != 0 || first.Attempted != 2 {
			t.Errorf("%s: %d of %d steps failed: %s", s.name, first.Failed, first.Attempted, first.Labels["first_failure"])
		}
		for _, d := range endToEnd {
			if v, ok := first.Metrics[d.Name]; !ok || !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want present and positive", s.name, d.Name, v)
			}
		}
		for _, name := range []string{"step_sim_s", "wire_bytes_per_step"} {
			if first.Metrics[name] != again.Metrics[name] {
				t.Errorf("%s: %s differs across two runs of one seed: %v vs %v", s.name, name, first.Metrics[name], again.Metrics[name])
			}
		}
	}
}

// roundOnly, treeOnly and unowedInSmoke name the per-layer metrics that do
// not apply to every workload; everything else is owed by all four.
var (
	roundOnly     = []string{"fl.upload_sim_s", "fl.aggregate_sim_s", "fl.broadcast_sim_s", "fl.decrypt_sim_s", "fl.peak_live_cts"}
	flatOnly      = []string{"fl.gather_sim_s"}
	treeOnly      = []string{"fl.tree_depth", "fl.tree_folds_per_step"}
	unowedInSmoke = []string{"step.wall_p90_s"} // two steps are no percentile
)

func contains(list []string, name string) bool {
	for _, x := range list {
		if x == name {
			return true
		}
	}
	return false
}

// TestSmokeTraced holds the traced pass to every per-layer metric a
// workload owes, no metric outside the declared table, and a trace file.
func TestSmokeTraced(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	for _, s := range specs(true) {
		o := smokeOptions(t, 7, true)
		res, err := runWorkload(s, o)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Errorf("%s: %d steps failed: %s", s.name, res.Failed, res.Labels["first_failure"])
		}
		for name := range res.Metrics {
			if strings.Contains(name, ".") && !declared[name] {
				t.Errorf("%s: emitted undeclared per-layer metric %s", s.name, name)
			}
		}
		tree := s.cohort.Tree()
		for _, d := range perLayer {
			owed := !contains(unowedInSmoke, d.Name) &&
				(!contains(roundOnly, d.Name) || !s.epoch()) &&
				(!contains(flatOnly, d.Name) || (!s.epoch() && !tree)) &&
				(!contains(treeOnly, d.Name) || tree)
			if _, ok := res.Metrics[d.Name]; ok != owed {
				t.Errorf("%s: per-layer metric %s emitted=%v, owed=%v", s.name, d.Name, ok, owed)
			}
		}
		for _, name := range []string{"paillier.encrypt_ns_per_ct", "mpint.modexp_ns", "fl.he_wall_s_per_step", "ladder.he_explained_share", "ladder.step_explained_share"} {
			if !(res.Metrics[name] > 0) {
				t.Errorf("%s: %s = %v, want positive", s.name, name, res.Metrics[name])
			}
		}
		data, err := os.ReadFile(o.outDir + "/trace-" + s.name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		var trace struct {
			TraceEvents []struct {
				Name string
				Args map[string]int
			}
		}
		if err := json.Unmarshal(data, &trace); err != nil {
			t.Fatalf("%s: trace file: %v", s.name, err)
		}
		seen := map[string]bool{}
		for _, e := range trace.TraceEvents {
			seen[e.Name] = true
		}
		for _, name := range []string{"setup", "fl.new_context", "warmup", "step", "paillier.encrypt", "probes", "probe.mpint.modexp"} {
			if !seen[name] {
				t.Errorf("%s: trace has no %q span", s.name, name)
			}
		}
	}
}

// TestContractLine drives the command line the driver uses and checks the
// last line: exactly the four keys, and exactly the owed metrics with the
// declared units — all of them, the ones that do not apply reading 0.
func TestContractLine(t *testing.T) {
	for _, tc := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out bytes.Buffer
		err := run([]string{"--workload", "cohort_tree_128", "--seed", "3", "--seconds", "1", "--trace", tc.trace, "-smoke", "-out", t.TempDir()}, &out)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&got); err != nil {
			t.Fatalf("trace %s: last line is not the result object: %v", tc.trace, err)
		}
		if got.Correct == nil || !*got.Correct || got.Attempted == nil || *got.Attempted < 1 || got.Failed == nil || *got.Failed != 0 {
			t.Errorf("trace %s: bad verdict in %s", tc.trace, lines[len(lines)-1])
		}
		if len(got.Metrics) != len(tc.defs) {
			t.Errorf("trace %s: %d metrics, want %d", tc.trace, len(got.Metrics), len(tc.defs))
		}
		for _, d := range tc.defs {
			if m, ok := got.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
				t.Errorf("trace %s: metric %s = %+v, want a value in %s", tc.trace, d.Name, m, d.Unit)
			}
		}
	}
}

// TestGeneratorSeeded: the same seed gives the same inputs, another seed
// gives others.
func TestGeneratorSeeded(t *testing.T) {
	a, b, c := gradients(nil, 5, 1, 3, 8), gradients(nil, 5, 1, 3, 8), gradients(nil, 6, 1, 3, 8)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different gradients")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced the same gradients")
	}
	if refilled := gradients(c, 5, 1, 3, 8); &refilled[0][0] != &c[0][0] || !reflect.DeepEqual(refilled, a) {
		t.Error("a buffer of the right shape was not refilled in place with the seed's values")
	}
}

// TestOracleCatchesCorruption: the round oracle accepts an aggregate within
// the quantization bound of the scaled plaintext sum over the included
// clients and rejects one value pushed just past it.
func TestOracleCatchesCorruption(t *testing.T) {
	grads := gradients(nil, 1, 0, 4, 6)
	rep := fl.RoundReport{Round: 1, Included: []string{fl.ClientName(0), fl.ClientName(2), fl.ClientName(3)}, Scale: 4.0 / 3}
	const step = 1e-3
	sum := make([]float64, 6)
	for _, i := range []int{0, 2, 3} {
		for j, v := range grads[i] {
			sum[j] += v * rep.Scale
		}
	}
	tol := 3 * rep.Scale * step / 2
	sum[4] += 0.9 * tol
	if err := checkAggregate(sum, grads, rep, step); err != nil {
		t.Errorf("aggregate inside the bound rejected: %v", err)
	}
	sum[4] += 0.2 * tol
	if err := checkAggregate(sum, grads, rep, step); err == nil {
		t.Error("aggregate past the bound accepted")
	}
	rep.Included = append(rep.Included, fl.ClientName(1))
	if err := checkAggregate(sum, grads, rep, step); err == nil {
		t.Error("aggregate over the wrong client set accepted")
	}
}

// TestTailPercentile: a p90 is reported only once ten samples lie beyond it.
func TestTailPercentile(t *testing.T) {
	xs := make([]float64, p90MinSamples)
	for i := range xs {
		xs[i] = float64(len(xs) - i) // 100..1, unsorted on purpose
	}
	if _, ok := tailPercentile(xs[1:]); ok {
		t.Errorf("p90 reported at %d samples", len(xs)-1)
	}
	if p, ok := tailPercentile(xs); !ok || p != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", p, ok)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestCompareSets: an exact metric may not differ at all across sets of one
// seed; a bounded one may differ up to its bound.
func TestCompareSets(t *testing.T) {
	set := func(sim, alloc float64) []*result {
		return []*result{{Workload: "w", Metrics: map[string]float64{
			"setup_s": 1, "step_sim_s": sim, "wire_bytes_per_step": 10, "alloc_mb_per_step": alloc,
		}}}
	}
	var out bytes.Buffer
	if p := compareSets(&out, [][]*result{set(2, 100), set(2, 104)}, endToEnd, true); len(p) != 0 {
		t.Errorf("sets inside every bound flagged: %v", p)
	}
	if !strings.Contains(out.String(), "w alloc_mb_per_step min 100 median 102 max 104 MB") {
		t.Errorf("missing min/median/max line in:\n%s", out.String())
	}
	if p := compareSets(&out, [][]*result{set(2, 100), set(2, 106)}, endToEnd, true); len(p) != 1 {
		t.Errorf("alloc 6%% apart against a 5%% bound: %v", p)
	}
	if p := compareSets(&out, [][]*result{set(2, 100), set(2.0000001, 100)}, endToEnd, true); len(p) != 1 {
		t.Errorf("modelled time differing across sets: %v", p)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json at the repository root to the
// tables and workloads this package actually runs.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(file.Paths, []string{"benchmark"}) {
		t.Errorf("command %v paths %v", file.Command, file.Paths)
	}
	all := specs(false)
	if len(file.Workloads) != len(all) {
		t.Fatalf("%d workloads listed, %d run", len(file.Workloads), len(all))
	}
	for i, s := range all {
		if file.Workloads[i].Name != s.name || file.Workloads[i].Why != s.why {
			t.Errorf("workload %d: file has %+v, package has %s / %s", i, file.Workloads[i], s.name, s.why)
		}
	}
	same := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%s: %d listed, %d declared", kind, len(listed), len(defs))
		}
		for i, d := range defs {
			want := metric{d.Name, d.Unit, d.Better, 0}
			if bounded {
				want.Bound = d.Bound
			}
			if listed[i] != want {
				t.Errorf("%s %d: file has %+v, package declares %+v", kind, i, listed[i], want)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd, true)
	same("per_layer", file.PerLayer, perLayer, false)
}
