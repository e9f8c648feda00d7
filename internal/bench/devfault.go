package bench

import (
	"fmt"
	"io"
	"time"

	"flbooster/internal/fl"
	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// DeviceFaults measures resilient GPU-HE execution (DESIGN.md §7). It runs
// the same secure-aggregation workload three ways on the FLBooster profile:
//
//	clean     — healthy device, no injection
//	transient — seeded abort + silent-corruption faults with full residue
//	            verification; every fault is caught and retried (or served
//	            once from the host), so the run must stay bit-exact
//	killed    — the device dies mid-run (KillAtLaunch calibrated to half the
//	            clean run's kernel launches); the checked engine fails over
//	            to the bit-exact host engine and the run must still produce
//	            identical outputs
//
// The experiment *asserts* bit-exactness: any aggregate that differs from
// the clean run is an error, not a table row. Alongside the sim/wall
// timings it prints the fault, retry, verification, and fallback counters
// from the context's FaultReport.
func (r *Runner) DeviceFaults(w io.Writer) error {
	keyBits := r.cfg.KeyBits[0]
	parties := r.cfg.Parties
	rounds := r.cfg.Epochs
	header(w, fmt.Sprintf("Device faults — checked GPU-HE execution (%d parties, %d-bit keys, %d rounds)",
		parties, keyBits, rounds))

	rng := mpint.NewRNG(r.cfg.Seed)
	grads := make([][]float64, parties)
	for c := range grads {
		grads[c] = make([]float64, resilienceDim)
		for i := range grads[c] {
			grads[c][i] = rng.Float64()*0.5 - 0.25
		}
	}

	// One device whatever Config.Devices says: the kill point is calibrated
	// from that device's launch count, and the killed run must end on the host.
	newCtx := func(pol fl.FaultPolicy) (*fl.Context, error) {
		p := fl.NewProfile(fl.SystemFLBooster, keyBits, parties)
		p.Seed = r.cfg.Seed
		p.Device = r.cfg.Device
		p.Faults = pol
		return fl.NewContext(p)
	}

	epoch := func(ctx *fl.Context) ([]float64, time.Duration, error) {
		fed := fl.NewFederation(ctx)
		defer fed.Close()
		var agg []float64
		start := time.Now()
		for i := 0; i < rounds; i++ {
			var err error
			if agg, _, err = fed.SecureAggregateReport(grads); err != nil {
				return nil, 0, err
			}
		}
		return agg, time.Since(start), nil
	}

	// Pass 1: fault-free run. Its aggregate is the reference every degraded
	// run must reproduce exactly, and its kernel-launch count calibrates the
	// mid-run kill point.
	cleanCtx, err := newCtx(fl.FaultPolicy{})
	if err != nil {
		return err
	}
	cleanAgg, cleanWall, err := epoch(cleanCtx)
	if err != nil {
		return fmt.Errorf("bench: clean device-fault epoch: %w", err)
	}
	cleanLaunches := cleanCtx.Device.Stats().KernelLaunches
	killAt := cleanLaunches / 2
	if killAt < 1 {
		killAt = 1
	}

	// Pass 2: transient faults under full verification.
	transCtx, err := newCtx(fl.FaultPolicy{
		Inject: gpu.FaultConfig{
			Seed:        r.cfg.Seed,
			AbortProb:   0.05,
			CorruptProb: 0.05,
		},
		Check: ghe.CheckedConfig{VerifyFraction: 1, VerifySeed: r.cfg.Seed},
	})
	if err != nil {
		return err
	}
	transAgg, transWall, err := epoch(transCtx)
	if err != nil {
		return fmt.Errorf("bench: transient device-fault epoch: %w", err)
	}

	// Pass 3: the device is killed mid-run and stays dead.
	killCtx, err := newCtx(fl.FaultPolicy{
		Inject: gpu.FaultConfig{Seed: r.cfg.Seed, KillAtLaunch: killAt},
	})
	if err != nil {
		return err
	}
	killAgg, killWall, err := epoch(killCtx)
	if err != nil {
		return fmt.Errorf("bench: killed-device epoch: %w", err)
	}

	if err := sameFloats("transient", cleanAgg, transAgg); err != nil {
		return err
	}
	if err := sameFloats("killed", cleanAgg, killAgg); err != nil {
		return err
	}
	rep := killCtx.FaultReport()
	if !rep.Checked.FellBack || rep.Health != gpu.DeviceFailed {
		return fmt.Errorf("bench: killed-device run did not fail over (health %s, fellBack %v)",
			rep.Health, rep.Checked.FellBack)
	}

	// Post-failover ciphertext check: both contexts have issued the same
	// number of nonce streams, so one more encryption must be bit-exact
	// between the healthy device path and the host fallback.
	cleanCts, err := cleanCtx.EncryptGradients(grads[0])
	if err != nil {
		return err
	}
	killCts, err := killCtx.EncryptGradients(grads[0])
	if err != nil {
		return err
	}
	if len(cleanCts) != len(killCts) {
		return fmt.Errorf("bench: post-kill ciphertext count %d, want %d", len(killCts), len(cleanCts))
	}
	for i := range cleanCts {
		if mpint.Cmp(cleanCts[i].C, killCts[i].C) != 0 {
			return fmt.Errorf("bench: post-kill ciphertext %d differs from the clean device path", i)
		}
	}

	fmt.Fprintf(w, "kill point: launch %d of %d (calibrated from the clean run)\n\n", killAt, cleanLaunches)
	fmt.Fprintf(w, "%-26s %10s %10s %9s %7s %7s %7s %9s %s\n",
		"Run", "Wall", "HE (sim)", "Health", "Inject", "Retry", "VFail", "Fallback", "Output")
	row := func(name string, wall time.Duration, ctx *fl.Context) {
		rep := ctx.FaultReport()
		fmt.Fprintf(w, "%-26s %10s %10s %9s %7d %7d %7d %9d %s\n",
			name, fmtDur(wall), fmtDur(ctx.Costs.Snapshot().HESim), rep.Health,
			rep.Injected.Total(), rep.Checked.Retries, rep.Checked.VerifyFailures,
			rep.Checked.FallbackOps, "bit-exact")
	}
	row("clean", cleanWall, cleanCtx)
	row("transient (verify all)", transWall, transCtx)
	row(fmt.Sprintf("killed (launch %d)", killAt), killWall, killCtx)
	fmt.Fprintf(w, "\nkilled run: %d launch failures, %d watchdog trips, %s simulated fault time, %s host fallback wall, %d/%d post-kill ciphertexts bit-exact\n",
		rep.LaunchFailures, rep.WatchdogTrips, fmtDur(rep.SimFaultTime),
		fmtDur(rep.Checked.FallbackWall), len(killCts), len(cleanCts))
	return nil
}

// sameFloats asserts exact (bit-level) equality of two aggregate vectors.
func sameFloats(name string, want, got []float64) error {
	if len(want) != len(got) {
		return fmt.Errorf("bench: %s run returned %d aggregates, want %d", name, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("bench: %s run aggregate %d = %v, want %v (fallback must be bit-exact)",
				name, i, got[i], want[i])
		}
	}
	return nil
}
