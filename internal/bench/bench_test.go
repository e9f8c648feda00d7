package bench

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"flbooster/internal/datasets"
	"flbooster/internal/fl"
)

// microConfig keeps unit tests fast: tiny datasets and a 128-bit key.
func microConfig() Config {
	cfg := Quick()
	cfg.Scale = 0.0002
	cfg.KeyBits = []int{128}
	cfg.Epochs = 2
	cfg.BatchSize = 32
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := Quick().Validate(); err != nil {
		t.Fatalf("Quick config invalid: %v", err)
	}
	if err := Paper().Validate(); err != nil {
		t.Fatalf("Paper config invalid: %v", err)
	}
	bad := []Config{
		{},
		func() Config { c := Quick(); c.Scale = 2; return c }(),
		func() Config { c := Quick(); c.KeyBits = nil; return c }(),
		func() Config { c := Quick(); c.Parties = 1; return c }(),
		func() Config { c := Quick(); c.Epochs = 0; return c }(),
		func() Config { c := Quick(); c.BatchSize = 0; return c }(),
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if _, err := NewRunner(Config{}); err == nil {
		t.Fatal("NewRunner should reject invalid configs")
	}
}

func TestRunnerCachesContextsAndData(t *testing.T) {
	r, err := NewRunner(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	c1, err := r.context(fl.SystemFATE, 128)
	if err != nil {
		t.Fatal(err)
	}
	c1.Costs.AddOther(123)
	c2, err := r.context(fl.SystemFATE, 128)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("context not cached")
	}
	if c2.Costs.Snapshot().TotalSim() != 0 {
		t.Fatal("cached context costs not reset")
	}
	d1, err := r.dataset(datasets.RCV1Spec)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := r.dataset(datasets.RCV1Spec)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatal("dataset not cached")
	}
}

func TestBuildModelNames(t *testing.T) {
	r, err := NewRunner(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds, err := r.dataset(datasets.SyntheticSpec)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ModelNames() {
		m, err := r.buildModel(name, nil, ds)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("%s close: %v", name, err)
		}
	}
	if _, err := r.buildModel("nope", nil, ds); err == nil {
		t.Fatal("unknown model should fail")
	}
}

func TestRunEpochsPopulatesResult(t *testing.T) {
	r, err := NewRunner(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.runEpochs("Homo LR", fl.SystemFLBooster, 128, datasets.SyntheticSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Costs.HEOps == 0 || res.Costs.CommBytes == 0 || res.Loss <= 0 {
		t.Fatalf("incomplete result: %+v", res)
	}
	if res.Utilization <= 0 {
		t.Fatal("GPU profile should report utilization")
	}
}

func TestHeadlineOrderingHolds(t *testing.T) {
	// The reproduction's core claim at any scale: FLBooster beats HAFLO
	// beats FATE on modelled epoch time for the LR models.
	r, err := NewRunner(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	times := map[fl.System]float64{}
	for _, sys := range []fl.System{fl.SystemFATE, fl.SystemHAFLO, fl.SystemFLBooster} {
		res, err := r.runEpochs("Homo LR", sys, 128, datasets.RCV1Spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		times[sys] = res.Costs.TotalSim().Seconds()
	}
	if !(times[fl.SystemFLBooster] < times[fl.SystemHAFLO] && times[fl.SystemHAFLO] < times[fl.SystemFATE]) {
		t.Fatalf("ordering violated: %v", times)
	}
}

func TestAblationOrderingHolds(t *testing.T) {
	// Table V shape: the full system beats both ablations.
	//
	// The w/o-GHE leg sets two clocks against each other — a CPU profile's HE
	// time is the host loop's wall time, the GPU profile's is modelled device
	// time — and
	// at the micro config's 128-bit key the modelled device is launch-bound
	// (601 µs an epoch, whatever the key) while this box's host needed
	// 710–1020 µs for the same epoch before PR 15 and needs 575–680 µs since
	// its clients encrypt through the factorisation. Which side of 601 µs the
	// host lands on is now a property of the box, so at 128 bits that
	// ordering is logged, not asserted (it failed 19 runs in 60), and it is
	// asserted at 512 bits, the smallest key where the host (≈4 ms on Go
	// rows; never under 2.6 ms in 50 runs on PR 18's assembly rows, n² being
	// 16 limbs there) is clear of the launch floor. The w/o-BC ordering is
	// modelled traffic on both sides and holds at either size.
	r, err := NewRunner(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		keyBits   int
		assertGHE bool
	}{{128, false}, {512, true}} {
		times := map[fl.System]float64{}
		for _, sys := range []fl.System{fl.SystemFLBooster, fl.SystemNoGHE, fl.SystemNoBC} {
			res, err := r.runEpochs("Homo LR", sys, tc.keyBits, datasets.RCV1Spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			times[sys] = res.Costs.TotalSim().Seconds()
		}
		switch {
		case times[fl.SystemFLBooster] < times[fl.SystemNoGHE]:
		case tc.assertGHE:
			t.Fatalf("k=%d: removing GPU HE should slow the system: %v", tc.keyBits, times)
		default:
			t.Logf("k=%d: host HE undercut the launch-bound device: %v", tc.keyBits, times)
		}
		if times[fl.SystemFLBooster] >= times[fl.SystemNoBC] {
			t.Fatalf("k=%d: removing batch compression should slow the system: %v", tc.keyBits, times)
		}
	}
}

// TestCellsAreRunOnce: a cell two experiments print is one run. Table V's
// FLBooster column is Table III's digit for digit (a host-clock share makes
// two trainings differ), and printing Tables III and IV again trains
// nothing, so the FATE context's nonce stream does not move.
func TestCellsAreRunOnce(t *testing.T) {
	r, err := NewRunner(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	// flbCells maps each row's model, key and dataset to the cell three
	// columns from the end: FLBooster in both Table III and Table V.
	flbCells := func(print func(io.Writer) error) map[string]string {
		var buf bytes.Buffer
		if err := print(&buf); err != nil {
			t.Fatal(err)
		}
		cells := map[string]string{}
		for _, line := range strings.Split(buf.String(), "\n") {
			if f := strings.Fields(line); len(f) > 6 && (f[0] == "Homo" || f[0] == "Hetero") {
				cells[strings.Join(f[:4], " ")] = f[len(f)-3]
			}
		}
		return cells
	}
	t3, t5 := flbCells(r.Table3), flbCells(r.Table5)
	if len(t3) != len(ModelNames())*len(datasets.AllSpecs()) || !reflect.DeepEqual(t3, t5) {
		t.Fatalf("Table III FLBooster column %v, Table V's %v", t3, t5)
	}
	if err := r.Table4(io.Discard); err != nil {
		t.Fatal(err)
	}
	fate := r.ctxs[ctxKey{fl.SystemFATE, 128}].NewParty("probe") // reads the context's one nonce stream
	cursor := fate.Cursor()
	for _, print := range []func(io.Writer) error{r.Table3, r.Table4} {
		if err := print(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	if got := fate.Cursor(); got != cursor {
		t.Fatalf("printing Tables III and IV again moved FATE's seed cursor %d → %d", cursor, got)
	}
}

func TestAllExperimentsProduceRows(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness pass is slow")
	}
	r, err := NewRunner(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.All(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Fig. 1", "Table III", "Table IV", "Fig. 6", "Table V",
		"Fig. 7", "Table VI", "Fig. 8", "Table VII",
		"Homo LR", "Hetero LR", "Hetero SBT", "Hetero NN",
		"RCV1", "Avazu", "Synthetic", "FLBooster",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFmtDur(t *testing.T) {
	cases := []struct {
		sec  float64
		want string
	}{{250, "250.0"}, {2.5, "2.50"}, {0.0042, "0.0042"}}
	for _, c := range cases {
		d := time.Duration(c.sec * float64(time.Second))
		if got := fmtDur(d); got != c.want {
			t.Errorf("fmtDur(%vs) = %q, want %q", c.sec, got, c.want)
		}
	}
}
