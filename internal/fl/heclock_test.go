package fl_test

import (
	"fmt"
	"testing"
	"time"

	"flbooster/internal/datasets"
	"flbooster/internal/fl"
	"flbooster/internal/gpu"
	"flbooster/internal/models"
)

// TestHEChargeIsTheDeviceClock: every HE batch a context runs after key
// generation is charged through one primitive that reads the executor's
// clock around it, so the HE component's modelled time is that clock to the
// nanosecond — after a flat round, a cohort-tree round and a Hetero LR epoch,
// on one device and on two, and on FATE's and w/o GHE's set of none, whose
// clock is the host loop's. A backend call outside the primitive advances the
// clock without a charge.
func TestHEChargeIsTheDeviceClock(t *testing.T) {
	ds, err := datasets.Generate(datasets.Spec{Name: "clock", Instances: 40, Features: 6, AvgActive: 6, Dense: true}, 3)
	if err != nil {
		t.Fatal(err)
	}
	grads := make([][]float64, 4)
	for i := range grads {
		grads[i] = make([]float64, 20)
		for j := range grads[i] {
			grads[i][j] = 0.01 * float64((i*7+j*3)%13-6)
		}
	}
	for _, sys := range []struct {
		system  fl.System
		devices int
	}{{fl.SystemFLBooster, 1}, {fl.SystemFLBooster, 2}, {fl.SystemFATE, 0}, {fl.SystemNoGHE, 0}} {
		devices := sys.devices
		p := fl.NewProfile(sys.system, 256, 4)
		p.Device = gpu.SmallTestDevice()
		p.RBits = 14
		p.Devices = devices
		ctx, err := fl.NewContext(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(ctx.Checked.Devices()) != devices {
			t.Fatalf("%s: %d devices, want %d", sys.system, len(ctx.Checked.Devices()), devices)
		}
		var last time.Duration
		check := func(after string) {
			t.Helper()
			he, dev := ctx.Costs.Snapshot().HESim, ctx.Checked.SimTime()
			if he != dev {
				t.Fatalf("D = %d, after %s: HESim %v, device clock %v", devices, after, he, dev)
			}
			if he <= last {
				t.Fatalf("D = %d: %s charged no HE time", devices, after)
			}
			last = he
		}
		if he, dev := ctx.Costs.Snapshot().HESim, ctx.Checked.SimTime(); he != 0 || dev != 0 {
			t.Fatalf("D = %d, after key generation: HESim %v, device clock %v, want 0", devices, he, dev)
		}
		for _, cohort := range []fl.CohortPolicy{{}, {Fanout: 2}} {
			ctx.Profile.Cohort = cohort
			fed := fl.NewFederation(ctx)
			if _, err := fed.SecureAggregate(grads); err != nil {
				t.Fatal(err)
			}
			fed.Close()
			check(fmt.Sprintf("a round at fan-out %d", cohort.Fanout))
		}
		m, err := models.NewHeteroLR(ctx, ds, models.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
		check("a Hetero LR epoch")
	}
}
