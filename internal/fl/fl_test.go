package fl

import (
	"errors"
	"math"
	"testing"

	"flbooster/internal/batch"
	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/quant"
)

// testProfile returns a fast configuration for unit tests: small key, small
// device.
func testProfile(sys System) Profile {
	p := NewProfile(sys, 128, 4)
	p.Device = gpu.SmallTestDevice()
	p.RBits = 14 // keep several slots per 128-bit plaintext
	return p
}

func testGrads(parties, count int) [][]float64 {
	grads := make([][]float64, parties)
	for i := range grads {
		grads[i] = make([]float64, count)
		for j := range grads[i] {
			grads[i][j] = 0.001 * float64((i*31+j*7)%997) * float64(1-2*(j%2))
		}
	}
	return grads
}

// runRound executes `rounds` SecureAggregate rounds over a fresh context and
// returns the final aggregate, the context, and the report.
func runRound(t *testing.T, p Profile, grads [][]float64, rounds int) ([]float64, *Context, RoundReport) {
	t.Helper()
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	var agg []float64
	var rep RoundReport
	for r := 0; r < rounds; r++ {
		if agg, rep, err = fed.SecureAggregateReport(grads); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	return agg, ctx, rep
}

func TestProfileToggles(t *testing.T) {
	cases := []struct {
		sys                    System
		useGPU, useBatch, fine bool
	}{
		{SystemFATE, false, false, false},
		{SystemHAFLO, true, false, false},
		{SystemFLBooster, true, true, true},
		{SystemNoGHE, false, true, false},
		{SystemNoBC, true, false, true},
	}
	for _, c := range cases {
		p := NewProfile(c.sys, 1024, 4)
		if p.UseGPU() != c.useGPU || p.UseBatch() != c.useBatch || p.FineRM() != c.fine {
			t.Errorf("%s toggles = %v/%v/%v", c.sys, p.UseGPU(), p.UseBatch(), p.FineRM())
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s default profile invalid: %v", c.sys, err)
		}
	}
}

func TestProfileValidation(t *testing.T) {
	bad := NewProfile(SystemFATE, 1024, 4)
	bad.KeyBits = 8
	if err := bad.Validate(); err == nil {
		t.Error("tiny key should fail")
	}
	bad = NewProfile(SystemFATE, 1024, 4)
	bad.KeyBits = 33
	if err := bad.Validate(); err == nil {
		t.Error("odd key size should fail: no two 16-bit primes make a 33-bit n")
	}
	bad = NewProfile(SystemFATE, 32, 4)
	if err := bad.Validate(); !errors.Is(err, batch.ErrKeyTooSmall) {
		t.Errorf("32-bit key: %v, want batch.ErrKeyTooSmall: an r+b = 32-bit slot does not fit below n", err)
	}
	bad = NewProfile(SystemFATE, 1024, 0)
	if err := bad.Validate(); err == nil {
		t.Error("zero parties should fail")
	}
	bad = NewProfile(SystemHAFLO, 1024, 4)
	bad.Device = gpu.Config{}
	if err := bad.Validate(); err == nil {
		t.Error("GPU profile with bad device should fail")
	}
}

// TestProfileValidateRejectsOutOfRangeFaults: a fault probability,
// kill ordinal, retry budget or verification fraction that is out of range or
// not finite is a typed error from Validate, and NewContext refuses the
// profile.
func TestProfileValidateRejectsOutOfRangeFaults(t *testing.T) {
	nan := math.NaN()
	for name, c := range map[string]struct {
		edit func(p *Profile)
		want error
	}{
		"AbortProb 2":           {func(p *Profile) { p.Faults.Inject.AbortProb = 2 }, gpu.ErrFaultConfig},
		"AbortProb NaN":         {func(p *Profile) { p.Faults.Inject.AbortProb = nan }, gpu.ErrFaultConfig},
		"StallProb −0.1":        {func(p *Profile) { p.Faults.Inject.StallProb = -0.1 }, gpu.ErrFaultConfig},
		"KillAtLaunch −1":       {func(p *Profile) { p.Faults.Inject.KillAtLaunch = -1 }, gpu.ErrFaultConfig},
		"VerifyFraction 3":      {func(p *Profile) { p.Faults.Check.VerifyFraction = 3 }, ghe.ErrCheckedConfig},
		"VerifyFraction NaN":    {func(p *Profile) { p.Faults.Check.VerifyFraction = nan }, ghe.ErrCheckedConfig},
		"MaxRetries −1":         {func(p *Profile) { p.Faults.Check.MaxRetries = -1 }, ghe.ErrCheckedConfig},
		"AbortProb NaN, on CPU": {func(p *Profile) { p.System, p.Faults.Inject.AbortProb = SystemFATE, nan }, gpu.ErrFaultConfig},
	} {
		p := testProfile(SystemFLBooster)
		c.edit(&p)
		if err := p.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: Validate = %v, want %v", name, err, c.want)
		}
		if _, err := NewContext(p); !errors.Is(err, c.want) {
			t.Errorf("%s: NewContext = %v, want %v", name, err, c.want)
		}
	}
	ok := testProfile(SystemFLBooster)
	ok.Faults.Inject = gpu.FaultConfig{Seed: 1, AbortProb: 1, KillAtLaunch: 3}
	ok.Faults.Check = ghe.CheckedConfig{VerifyFraction: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("a profile at the ends of every range: %v", err)
	}
}

func TestNewContextPerSystem(t *testing.T) {
	for _, sys := range AllSystems() {
		ctx, err := NewContext(testProfile(sys))
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if ctx.Checked == nil {
			t.Fatalf("%s: no HE stack", sys)
		}
		if (len(ctx.Checked.Devices()) > 0) != ctx.Profile.UseGPU() || (ctx.Device != nil) != ctx.Profile.UseGPU() {
			t.Errorf("%s: %d devices, member 0 %v, GPU %t", sys, len(ctx.Checked.Devices()), ctx.Device, ctx.Profile.UseGPU())
		}
		if (ctx.Packer.Slots() == 1) == ctx.Profile.UseBatch() {
			t.Errorf("%s: %d slots a plaintext with batch compression %t", sys, ctx.Packer.Slots(), ctx.Profile.UseBatch())
		}
		if ctx.Key.KeyBits() != 128 {
			t.Errorf("%s: key bits = %d", sys, ctx.Key.KeyBits())
		}
	}
}

// TestNewContextRejectsKeyWithoutASlot: batch compression off is one slot a
// plaintext, checked against the key like any packing. At 32 bits an r+b =
// 32-bit slot does not fit below n, so every profile, FATE and HAFLO too,
// rejects the key instead of opening four clients' 1.0 to a wrapped sum.
func TestNewContextRejectsKeyWithoutASlot(t *testing.T) {
	for _, sys := range AllSystems() {
		p := NewProfile(sys, 32, 4) // r = 30, b = 2
		p.Device = gpu.SmallTestDevice()
		if _, err := NewContext(p); !errors.Is(err, batch.ErrKeyTooSmall) {
			t.Errorf("%s at 32 bits: %v, want batch.ErrKeyTooSmall", sys, err)
		}
	}
}

func TestEncryptDecryptRoundTripAllSystems(t *testing.T) {
	grads := []float64{-0.9, -0.5, 0, 0.25, 0.8, 0.001, -0.0001, 0.333}
	for _, sys := range AllSystems() {
		sys := sys
		t.Run(string(sys), func(t *testing.T) {
			ctx, err := NewContext(testProfile(sys))
			if err != nil {
				t.Fatal(err)
			}
			cts, err := ctx.EncryptGradients(grads)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ctx.DecryptAggregated(cts, len(grads), 1)
			if err != nil {
				t.Fatal(err)
			}
			bound := ctx.Quant.MaxError()
			for i := range grads {
				if d := got[i] - grads[i]; d > bound || d < -bound {
					t.Fatalf("grad %d error %v > %v", i, d, bound)
				}
			}
		})
	}
}

func TestBatchCompressionReducesCiphertexts(t *testing.T) {
	grads := make([]float64, 64)
	noBC, err := NewContext(testProfile(SystemNoBC))
	if err != nil {
		t.Fatal(err)
	}
	withBC, err := NewContext(testProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	ctsNo, err := noBC.EncryptGradients(grads)
	if err != nil {
		t.Fatal(err)
	}
	ctsYes, err := withBC.EncryptGradients(grads)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctsNo) != 64 {
		t.Fatalf("w/o BC should emit one ciphertext per value, got %d", len(ctsNo))
	}
	if len(ctsYes) >= len(ctsNo)/4 {
		t.Fatalf("batching should cut ciphertexts sharply: %d vs %d", len(ctsYes), len(ctsNo))
	}
	if r := withBC.Costs.Snapshot().CompressionRatio(); r < 4 {
		t.Fatalf("compression ratio %v too small", r)
	}
	if r := noBC.Costs.Snapshot().CompressionRatio(); r != 1 {
		t.Fatalf("uncompressed ratio %v, want 1", r)
	}
}

func TestSecureAggregateSumsAcrossParties(t *testing.T) {
	for _, sys := range []System{SystemFATE, SystemFLBooster} {
		sys := sys
		t.Run(string(sys), func(t *testing.T) {
			ctx, err := NewContext(testProfile(sys))
			if err != nil {
				t.Fatal(err)
			}
			fed := NewFederation(ctx)
			defer fed.Close()
			const n = 10
			grads := make([][]float64, 4)
			want := make([]float64, n)
			for p := range grads {
				grads[p] = make([]float64, n)
				for i := range grads[p] {
					grads[p][i] = float64((p+1)*(i+1)) / 100 * 0.1
					want[i] += grads[p][i]
				}
			}
			got, err := fed.SecureAggregate(grads)
			if err != nil {
				t.Fatal(err)
			}
			bound := 4 * ctx.Quant.MaxError()
			for i := range want {
				if d := got[i] - want[i]; d > bound || d < -bound {
					t.Fatalf("sum[%d] = %v, want %v ± %v", i, got[i], want[i], bound)
				}
			}
			// Cost anatomy must be populated.
			c := ctx.Costs.Snapshot()
			if c.HEOps == 0 || c.CommBytes == 0 || c.CommMsgs != 8 {
				t.Fatalf("costs incomplete: %+v", c)
			}
		})
	}
}

func TestSecureAggregateValidation(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFATE))
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	if _, err := fed.SecureAggregate(make([][]float64, 2)); err == nil {
		t.Fatal("wrong party count should fail")
	}
	grads := [][]float64{{1}, {1}, {1}, {1, 2}}
	if _, err := fed.SecureAggregate(grads); err == nil {
		t.Fatal("ragged gradient vectors should fail")
	}
	// A NaN has no quantization: it fails the round before anything is
	// encrypted or charged, instead of uploading as +α.
	before := ctx.Costs.Snapshot()
	if sum, err := fed.SecureAggregate([][]float64{{math.NaN()}, {0}, {0}, {0}}); !errors.Is(err, quant.ErrNaN) {
		t.Fatalf("NaN gradient aggregated to %v, %v; want quant.ErrNaN", sum, err)
	}
	if after := ctx.Costs.Snapshot(); after.HEOps != before.HEOps || after.EncodeVals != before.EncodeVals {
		t.Fatalf("the refused NaN was charged: %+v, was %+v", after, before)
	}
}

func TestCompressionShrinksTraffic(t *testing.T) {
	run := func(sys System) int64 {
		ctx, err := NewContext(testProfile(sys))
		if err != nil {
			t.Fatal(err)
		}
		fed := NewFederation(ctx)
		defer fed.Close()
		grads := make([][]float64, 4)
		for p := range grads {
			grads[p] = make([]float64, 32)
		}
		if _, err := fed.SecureAggregate(grads); err != nil {
			t.Fatal(err)
		}
		return ctx.Costs.Snapshot().CommBytes
	}
	withBC := run(SystemFLBooster)
	noBC := run(SystemNoBC)
	if withBC*3 >= noBC {
		t.Fatalf("batch compression should cut traffic by ≥3×: %d vs %d bytes", withBC, noBC)
	}
}

func TestFasterSystemsOrdering(t *testing.T) {
	// The headline inequality at equal workload: FLBooster's modelled epoch
	// component times must beat HAFLO's, which must beat FATE's, on HE time.
	grads := make([]float64, 128)
	for i := range grads {
		grads[i] = 0.01 * float64(i%7)
	}
	times := map[System]float64{}
	for _, sys := range []System{SystemFATE, SystemHAFLO, SystemFLBooster} {
		ctx, err := NewContext(testProfile(sys))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ctx.EncryptGradients(grads); err != nil {
			t.Fatal(err)
		}
		times[sys] = ctx.Costs.Snapshot().HESim.Seconds()
	}
	if !(times[SystemFLBooster] < times[SystemHAFLO] && times[SystemHAFLO] < times[SystemFATE]) {
		t.Fatalf("modelled HE ordering violated: %v", times)
	}
}

func TestCostsShares(t *testing.T) {
	c := &Costs{}
	c.AddHE(50, 100, 10, 10)
	c.AddComm(300, 1234)
	c.AddOther(100)
	o, h, m := c.Snapshot().Shares()
	if o < 0.19 || o > 0.21 || h < 0.19 || h > 0.21 || m < 0.59 || m > 0.61 {
		t.Fatalf("shares = %v/%v/%v", o, h, m)
	}
	if c.Snapshot().TotalSim() != 500 {
		t.Fatalf("TotalSim = %v", c.Snapshot().TotalSim())
	}
	empty := &Costs{}
	if o, h, m := empty.Snapshot().Shares(); o != 0 || h != 0 || m != 0 {
		t.Fatal("empty shares should be zero")
	}
	if empty.Snapshot().Throughput() != 0 {
		t.Fatal("empty throughput should be zero")
	}
	c.Reset()
	if c.Snapshot().TotalSim() != 0 {
		t.Fatal("reset failed")
	}
}

func TestTrackOtherAndUtilization(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	ctx.TrackOther(func() {
		s := 0.0
		for i := 0; i < 10000; i++ {
			s += float64(i)
		}
		_ = s
	})
	if ctx.Costs.Snapshot().OtherWall <= 0 {
		t.Fatal("TrackOther did not record time")
	}
	if _, err := ctx.EncryptGradients([]float64{0.1}); err != nil {
		t.Fatal(err)
	}
	if u := ctx.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization = %v", u)
	}
	cpu, err := NewContext(testProfile(SystemFATE))
	if err != nil {
		t.Fatal(err)
	}
	if cpu.Utilization() != 0 {
		t.Fatal("CPU profile should report zero utilization")
	}
}

// TestAggregateValidation: the unbounded tree — the flat fold the vertical
// models' secure sums go through — refuses an empty aggregate and a batch
// of another width.
func TestAggregateValidation(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFATE))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := ctx.NewAggTree(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Root(); err == nil {
		t.Fatal("empty aggregation should fail")
	}
	a, err := ctx.EncryptGradients([]float64{0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.EncryptGradients([]float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := tree.Add(b); err == nil {
		t.Fatal("ragged batches should fail")
	}
}
