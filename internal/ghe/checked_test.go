package ghe

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/obs"
)

// executorOn builds a CheckedEngine over d fresh devices of one
// configuration.
func executorOn(t testing.TB, dev gpu.Config, d int, cfg CheckedConfig) *CheckedEngine {
	t.Helper()
	c, err := NewCheckedEngine(dev, true, d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkedSet builds a CheckedEngine over d fresh small devices.
func checkedSet(t testing.TB, d int, cfg CheckedConfig) *CheckedEngine {
	t.Helper()
	return executorOn(t, gpu.SmallTestDevice(), d, cfg)
}

// checkedEngine builds a CheckedEngine over one fresh small device with the
// given fault injection and checking policy.
func checkedEngine(t testing.TB, inject gpu.FaultConfig, cfg CheckedConfig) *CheckedEngine {
	t.Helper()
	c := checkedSet(t, 1, cfg)
	if inject.Enabled() {
		c.Devices()[0].SetFaultInjector(gpu.NewFaultInjector(inject))
	}
	return c
}

// TestHostLoopParityWithExecutor: every op, the prime search included, returns
// on the host loop the vector the executor at D = 1 returns.
func TestHostLoopParityWithExecutor(t *testing.T) {
	eng := testEngine(t)
	var host hostLoop
	r := mpint.NewRNG(7)
	n := r.RandPrime(96)
	m := mpint.NewMont(n)
	bases := randVec(r, 20, n)
	exps := randVec(r, 20, n)
	exp := r.RandBits(80)
	crt, n2 := testCRT(t, r, 96)
	xs := randVec(r, 20, crt.N())
	cands, wits := mrOperands(r, 20, 96)

	type pair struct {
		name     string
		dev, cpu func() ([]mpint.Nat, error)
	}
	for _, p := range []pair{
		{"ModExpVec",
			func() ([]mpint.Nat, error) { return eng.ModExpVec(bases, exp, m) },
			func() ([]mpint.Nat, error) { return host.ModExpVec(bases, exp, m) }},
		{"EncryptVec (holder)",
			func() ([]mpint.Nat, error) { return eng.EncryptVec(xs, encKey(crt, n2, true), 99) },
			func() ([]mpint.Nat, error) { return host.EncryptVec(xs, encKey(crt, n2, true), 99) }},
		{"EncryptVec (holder) vs the n² window",
			func() ([]mpint.Nat, error) { return eng.EncryptVec(xs, encKey(crt, n2, true), 99) },
			func() ([]mpint.Nat, error) { return host.EncryptVec(xs, encKey(crt, n2, false), 99) }},
		{"EncryptVec (public) vs the textbook expression",
			func() ([]mpint.Nat, error) { return eng.EncryptVec(xs, encKey(crt, n2, false), 99) },
			func() ([]mpint.Nat, error) { return textbookEncrypt(xs, crt.N(), 99), nil }},
		{"ModExpVarVec",
			func() ([]mpint.Nat, error) { return eng.ModExpVarVec(bases, exps, m) },
			func() ([]mpint.Nat, error) { return host.ModExpVarVec(bases, exps, m) }},
		{"ModMulVec",
			func() ([]mpint.Nat, error) { return eng.ModMulVec(bases, exps, m) },
			func() ([]mpint.Nat, error) { return host.ModMulVec(bases, exps, m) }},
		{"AddVec",
			func() ([]mpint.Nat, error) { return eng.AddVec(bases, xs) },
			func() ([]mpint.Nat, error) { return host.AddVec(bases, xs) }},
		{"MulVec",
			func() ([]mpint.Nat, error) { return eng.MulVec(bases, xs) },
			func() ([]mpint.Nat, error) { return host.MulVec(bases, xs) }},
		{"ModVec",
			func() ([]mpint.Nat, error) { return eng.ModVec(xs, n) },
			func() ([]mpint.Nat, error) { return host.ModVec(xs, n) }},
		{"MillerRabinVec",
			func() ([]mpint.Nat, error) { return eng.Frame(len(wits)).MillerRabinVec(cands, wits) },
			func() ([]mpint.Nat, error) { return host.MillerRabinVec(cands, wits) }},
		{"MillerRabinVec, one candidate",
			func() ([]mpint.Nat, error) { return eng.Frame(len(wits)).MillerRabinVec(cands[:1], wits) },
			func() ([]mpint.Nat, error) { return host.MillerRabinVec(cands[:1], wits) }},
		{"PrimeSearch",
			func() ([]mpint.Nat, error) {
				p, err := eng.PrimeSearch().Prime(mpint.NewRNG(99), 48)
				return []mpint.Nat{p}, err
			},
			func() ([]mpint.Nat, error) {
				p, err := host.PrimeSearch().Prime(mpint.NewRNG(99), 48)
				return []mpint.Nat{p}, err
			}},
	} {
		dv, err := p.dev()
		if err != nil {
			t.Fatalf("%s executor: %v", p.name, err)
		}
		cv, err := p.cpu()
		if err != nil {
			t.Fatalf("%s host: %v", p.name, err)
		}
		for i := range dv {
			if mpint.Cmp(dv[i], cv[i]) != 0 {
				t.Fatalf("%s[%d]: host loop not bit-exact with the executor", p.name, i)
			}
		}
	}
}

// TestCheckedRetriesTransientAborts: launch aborts are retried with simulated
// backoff until a clean attempt lands, and the result matches the host.
func TestCheckedRetriesTransientAborts(t *testing.T) {
	c := checkedEngine(t,
		gpu.FaultConfig{Seed: 5, AbortProb: 0.4},
		CheckedConfig{MaxRetries: 8})
	r := mpint.NewRNG(8)
	n := r.RandPrime(96)
	m := mpint.NewMont(n)
	bases := randVec(r, 16, n)
	exp := r.RandBits(64)
	want, _ := hostLoop{}.ModExpVec(bases, exp, m)
	for op := 0; op < 10; op++ {
		got, err := c.ModExpVec(bases, exp, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if mpint.Cmp(got[i], want[i]) != 0 {
				t.Fatalf("op %d element %d wrong after retries", op, i)
			}
		}
	}
	st := c.Stats()
	if st.Retries == 0 || c.Devices()[0].Stats().FaultAborts == 0 {
		t.Fatalf("expected observed faults and retries: %+v", st)
	}
	if ds := c.Devices()[0].Stats(); ds.SimFaultTime-time.Duration(ds.FaultStalls)*gpu.WatchdogWindow <= 0 {
		t.Fatalf("retry backoff not charged to the device clock: %+v", ds)
	}
}

// TestCheckedBackoffSaturates: a retry budget past the width of the backoff's
// shift still waits a positive backoff no longer than the cap before every
// retry, and the backoff the spans show is the fault time the device was
// charged. Every launch aborts, so the one op spends all 60 retries before
// its device retires and the host serves it.
func TestCheckedBackoffSaturates(t *testing.T) {
	c := checkedEngine(t, gpu.FaultConfig{Seed: 3, AbortProb: 1}, CheckedConfig{MaxRetries: 60})
	dev := c.Devices()[0]
	rec := obs.NewRecorder(1)
	dev.SetRecorder(rec, "test")
	r := mpint.NewRNG(9)
	m := mpint.NewMont(r.RandPrime(64))
	a, b := randVec(r, 4, m.N()), randVec(r, 4, m.N())
	got, err := c.ModMulVec(a, b, m)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := hostLoop{}.ModMulVec(a, b, m)
	sameVec(t, "mod_mul_vec served by the host", got, want)
	waits, charged := 0, time.Duration(0)
	for _, sp := range rec.Spans() {
		if sp.Lane != "gpu.fault" {
			continue
		}
		if waits++; sp.Dur <= 0 || sp.Dur > backoffCap {
			t.Fatalf("backoff %d waited %v, want (0, 64ms]", waits, sp.Dur)
		}
		charged += sp.Dur
	}
	st := c.Stats()
	if waits != 60 || st.Retries != 60 {
		t.Fatalf("%d backoffs charged for %d retries, want 60 of each", waits, st.Retries)
	}
	if fault := dev.Stats().SimFaultTime; charged != fault {
		t.Fatalf("spans show %v of backoff, the device was charged %v", charged, fault)
	}
}

// TestFaultTimeLedgerMatchesTrace: the device ledger and the trace agree on
// what faults cost. On each member of a two-device set under seeded aborts,
// stalls, OOMs and corruption with every element verified, SimFaultTime is
// one watchdog window a stall plus that member's other gpu.fault spans — the
// retry backoffs — to the nanosecond.
func TestFaultTimeLedgerMatchesTrace(t *testing.T) {
	c := checkedSet(t, 2, CheckedConfig{MaxRetries: 8, VerifyFraction: 1, VerifySeed: 4})
	for i, dev := range c.Devices() {
		dev.SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{
			Seed: uint64(17 + i), AbortProb: 0.15, CorruptProb: 0.2, StallProb: 0.15, OOMProb: 0.1}))
	}
	rec := obs.NewRecorder(1)
	for _, dev := range c.Devices() {
		dev.SetRecorder(rec, "test")
	}
	r := mpint.NewRNG(12)
	m := mpint.NewMont(r.RandPrime(96))
	bases := randVec(r, 12, m.N())
	exp := r.RandBits(40)
	sums := weightedSums(r, len(bases), 5, 10)
	wantExp, _ := hostLoop{}.ModExpVec(bases, exp, m)
	wantSums := multiExpOracle(m, bases, sums)
	for round := 0; round < 6; round++ {
		got, err := c.ModExpVec(bases, exp, m)
		if err != nil {
			t.Fatal(err)
		}
		sameVec(t, "mod_exp_vec under faults", got, wantExp)
		if got, err = c.MultiExpVec(bases, sums, m); err != nil {
			t.Fatal(err)
		}
		sameVec(t, "multi_exp_vec under faults", got, wantSums)
	}

	backoff := map[string]time.Duration{}
	watchdogs := map[string]int64{}
	for _, sp := range rec.Spans() {
		switch {
		case sp.Lane != "gpu.fault":
		case strings.HasSuffix(sp.Phase, ".watchdog"):
			watchdogs[sp.Device]++
		default:
			backoff[sp.Device] += sp.Dur
		}
	}
	var all gpu.Stats
	for i, dev := range c.Devices() {
		st, label := dev.Stats(), fmt.Sprintf("dev%d", i)
		if want := time.Duration(st.FaultStalls)*gpu.WatchdogWindow + backoff[label]; st.SimFaultTime != want {
			t.Errorf("%s: ledger charges %v of fault time, the trace %v (%d stalls, %v of backoff)",
				label, st.SimFaultTime, want, st.FaultStalls, backoff[label])
		}
		if watchdogs[label] != st.FaultStalls || backoff[label] <= 0 {
			t.Errorf("%s: %d watchdog spans for %d stalls, %v of backoff", label, watchdogs[label], st.FaultStalls, backoff[label])
		}
		all.FaultAborts += st.FaultAborts
		all.FaultStalls += st.FaultStalls
		all.FaultOOMs += st.FaultOOMs
		all.FaultCorruptions += st.FaultCorruptions
	}
	if all.FaultAborts == 0 || all.FaultStalls == 0 || all.FaultOOMs == 0 || all.FaultCorruptions == 0 {
		t.Fatalf("want every fault kind injected at these seeds: %+v", all)
	}
}

// TestCheckedCatchesCorruption: with every launch silently corrupted and full
// verification, the residue check catches each of the shard's 1 + MaxRetries
// tries, the member retires its device, and the op completes correctly on
// the host.
func TestCheckedCatchesCorruption(t *testing.T) {
	c := checkedEngine(t,
		gpu.FaultConfig{Seed: 3, CorruptProb: 1},
		CheckedConfig{VerifyFraction: 1, VerifySeed: 3})
	r := mpint.NewRNG(9)
	n := r.RandPrime(96)
	m := mpint.NewMont(n)
	bases := randVec(r, 12, n)
	exp := r.RandBits(64)
	want, _ := hostLoop{}.ModExpVec(bases, exp, m)
	got, err := c.ModExpVec(bases, exp, m)
	if err != nil {
		t.Fatal(err)
	}
	sameVec(t, "mod_exp_vec after fallback", got, want)
	st, dev := c.Stats(), c.Devices()[0].Stats()
	if dev.FaultCorruptions != 3 || dev.KernelLaunches != 3 || st.Retries != 2 {
		t.Fatalf("want 3 tries, each caught, with 2 retries between: %+v, device %+v", st, dev)
	}
	if dev.Health != gpu.DeviceFailed || st.HostShards != 1 {
		t.Fatalf("the spent budget should retire the device and hand the op to the host: %+v, device %+v", st, dev)
	}
}

// TestPersistentCorruptionRetiresDevice: a device that corrupts every launch
// is retired by the first op that spends its tries on it. The four ops after
// it go straight to the host loop — no launch, no failure, no fault time
// added on the device — and every result is bit-exact.
func TestPersistentCorruptionRetiresDevice(t *testing.T) {
	c := checkedEngine(t,
		gpu.FaultConfig{Seed: 3, CorruptProb: 1},
		CheckedConfig{VerifyFraction: 1, VerifySeed: 3})
	dev := c.Devices()[0]
	r := mpint.NewRNG(19)
	m := mpint.NewMont(r.RandPrime(96))
	bases := randVec(r, 8, m.N())
	exp := r.RandBits(48)
	want, _ := hostLoop{}.ModExpVec(bases, exp, m)
	var first gpu.Stats
	for op := 0; op < 5; op++ {
		got, err := c.ModExpVec(bases, exp, m)
		if err != nil {
			t.Fatal(err)
		}
		sameVec(t, fmt.Sprintf("op %d", op), got, want)
		if op == 0 {
			if first = dev.Stats(); first.Health != gpu.DeviceFailed {
				t.Fatalf("after op 1 the device is %s, want failed", first.Health)
			}
		}
	}
	last := dev.Stats()
	if last.KernelLaunches != first.KernelLaunches || last.LaunchFailures != first.LaunchFailures || last.SimFaultTime != first.SimFaultTime {
		t.Fatalf("ops 2–5 reached the retired device: %d → %d launches, %d → %d failures, %v → %v fault time",
			first.KernelLaunches, last.KernelLaunches, first.LaunchFailures, last.LaunchFailures, first.SimFaultTime, last.SimFaultTime)
	}
	if st := c.Stats(); st.HostShards != 5 || st.Retries != 2 {
		t.Fatalf("want every op on the host and only op 1's 2 retries: %+v", st)
	}
}

// TestCheckedFullVerificationNeverMissesCorruption is the corruption-escape
// regression: with VerifyFraction=1 every element of every launch is
// checked, so across many corrupted launches no poisoned result may ever
// reach the caller. (With-replacement sampling used to miss a single
// corrupted item with probability ~(1-1/n)^n ≈ 37% per launch.)
func TestCheckedFullVerificationNeverMissesCorruption(t *testing.T) {
	c := checkedEngine(t,
		gpu.FaultConfig{Seed: 17, CorruptProb: 0.5},
		CheckedConfig{VerifyFraction: 1, VerifySeed: 17, MaxRetries: 8})
	r := mpint.NewRNG(18)
	n := r.RandPrime(96)
	m := mpint.NewMont(n)
	bases := randVec(r, 8, n)
	exp := r.RandBits(48)
	want, _ := hostLoop{}.ModExpVec(bases, exp, m)
	for op := 0; op < 40; op++ {
		got, err := c.ModExpVec(bases, exp, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if mpint.Cmp(got[i], want[i]) != 0 {
				t.Fatalf("op %d element %d: corruption escaped full verification", op, i)
			}
		}
	}
	if dev := gpu.Sum(c.Devices()); dev.FaultCorruptions == 0 {
		t.Fatalf("expected corrupted launches to be caught: %+v", dev)
	}
}

// TestSampleIndicesWithoutReplacement: a partial fraction checks distinct
// indices, and a full fraction covers every index exactly once.
func TestSampleIndicesWithoutReplacement(t *testing.T) {
	c := checkedEngine(t, gpu.FaultConfig{}, CheckedConfig{VerifyFraction: 0.5, VerifySeed: 2})
	for _, tc := range []struct{ n, samples int }{
		{1, 1}, {8, 3}, {16, 8}, {16, 15}, {9, 9}, {5, 7},
	} {
		idx := c.members[0].sampleIndices(tc.n, tc.samples)
		wantLen := tc.samples
		if wantLen > tc.n {
			wantLen = tc.n
		}
		if len(idx) != wantLen {
			t.Fatalf("sampleIndices(%d, %d) returned %d indices, want %d",
				tc.n, tc.samples, len(idx), wantLen)
		}
		seen := make(map[int]bool, len(idx))
		for _, i := range idx {
			if i < 0 || i >= tc.n {
				t.Fatalf("sampleIndices(%d, %d) returned out-of-range index %d", tc.n, tc.samples, i)
			}
			if seen[i] {
				t.Fatalf("sampleIndices(%d, %d) repeated index %d", tc.n, tc.samples, i)
			}
			seen[i] = true
		}
	}
}

// TestCheckedFailoverBitExact is the kill-one-device criterion at the engine
// level: after the device dies, every op transparently runs on the host and
// the results are bit-exact with a healthy device.
func TestCheckedFailoverBitExact(t *testing.T) {
	clean := testEngine(t)
	c := checkedEngine(t, gpu.FaultConfig{Seed: 1, KillAtLaunch: 1}, CheckedConfig{})
	r := mpint.NewRNG(10)
	n := r.RandPrime(96)
	m := mpint.NewMont(n)
	bases := randVec(r, 16, n)
	exp := r.RandBits(72)

	wantExp, err := clean.ModExpVec(bases, exp, m)
	if err != nil {
		t.Fatal(err)
	}
	gotExp, err := c.ModExpVec(bases, exp, m)
	if err != nil {
		t.Fatal(err)
	}
	crt, n2 := testCRT(t, r, 96)
	ms := randVec(r, 16, crt.N())
	wantEnc, err := clean.EncryptVec(ms, encKey(crt, n2, true), 77)
	if err != nil {
		t.Fatal(err)
	}
	gotEnc, err := c.EncryptVec(ms, encKey(crt, n2, true), 77)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantExp {
		if mpint.Cmp(gotExp[i], wantExp[i]) != 0 {
			t.Fatalf("ModExpVec[%d] fallback not bit-exact", i)
		}
		if mpint.Cmp(gotEnc[i], wantEnc[i]) != 0 {
			t.Fatalf("EncryptVec[%d] fallback not bit-exact", i)
		}
	}
	if st := c.Stats(); st.HostShards == 0 || st.HostSim <= 0 {
		t.Fatalf("failover not recorded: %+v", st)
	}
	if h := c.Devices()[0].Health(); h != gpu.DeviceFailed {
		t.Fatalf("killed device health %s, want failed", h)
	}
}

// TestCheckedStatsDeterministic: identical seeds produce the identical
// fault/retry/fallback history — stalls and the watchdog windows they cost
// included — and the same results.
func TestCheckedStatsDeterministic(t *testing.T) {
	run := func(seed uint64) (CheckedStats, gpu.Stats, []mpint.Nat) {
		c := checkedEngine(t,
			gpu.FaultConfig{Seed: seed, AbortProb: 0.3, CorruptProb: 0.3, StallProb: 0.2},
			CheckedConfig{VerifyFraction: 1, VerifySeed: seed, MaxRetries: 4})
		r := mpint.NewRNG(11)
		n := r.RandPrime(96)
		m := mpint.NewMont(n)
		bases := randVec(r, 10, n)
		exp := r.RandBits(48)
		var out []mpint.Nat
		for op := 0; op < 6; op++ {
			got, err := c.ModExpVec(bases, exp, m)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, got...)
		}
		return c.Stats(), c.Devices()[0].Stats(), out
	}
	a, devA, outA := run(21)
	b, devB, outB := run(21)
	if a != b {
		t.Fatalf("checked stats diverged for one seed:\n%+v\n%+v", a, b)
	}
	if devA.SimFaultTime != devB.SimFaultTime || devA.FaultStalls != devB.FaultStalls {
		t.Fatalf("device fault counters diverged for one seed:\n%+v\n%+v", devA, devB)
	}
	sameVec(t, "results under one seed", outB, outA)
	if devA.FaultAborts == 0 || devA.FaultCorruptions == 0 || devA.FaultStalls == 0 {
		t.Fatalf("expected aborts, corruptions and stalls: %+v, device %+v", a, devA)
	}
}

// TestCheckedPassesThroughCallerErrors: non-device errors (length mismatch)
// surface immediately without burning retries.
func TestCheckedPassesThroughCallerErrors(t *testing.T) {
	c := checkedEngine(t, gpu.FaultConfig{}, CheckedConfig{})
	r := mpint.NewRNG(12)
	n := r.RandPrime(64)
	m := mpint.NewMont(n)
	bases := randVec(r, 4, n)
	if _, err := c.ModExpVarVec(bases, bases[:2], m); err == nil {
		t.Fatal("length mismatch must fail")
	}
	if st, dev := c.Stats(), c.Devices()[0].Stats(); st.Retries != 0 || dev.LaunchFailures != 0 || st.HostShards != 0 {
		t.Fatalf("caller error consumed fault machinery: %+v", st)
	}
}

// TestCheckedConstructor: a negative device count and one above MaxDevices are
// rejected.
func TestCheckedConstructor(t *testing.T) {
	for _, d := range []int{-1, MaxDevices + 1} {
		if _, err := NewCheckedEngine(gpu.SmallTestDevice(), true, d, CheckedConfig{}); err == nil {
			t.Fatalf("%d devices must be rejected", d)
		}
	}
}

// TestGeneratePrimeIsAFunctionOfTheSeed: the prime search is the seeded walk
// whatever runs its rounds — ten calls in a row, the host loop, the executor
// over 1 device unverified, over 1, 2 and 3 devices verified, and over 3 with
// member 1 killed mid-search: the pair and the generator's state after it are
// the host walk's, so a generated key depends on the seed and nothing else.
func TestGeneratePrimeIsAFunctionOfTheSeed(t *testing.T) {
	const bits, seed = 64, 7
	want := mpint.NewRNG(seed)
	wantP, wantQ, err := mpint.HostSearch.Pair(want, bits)
	if err != nil {
		t.Fatal(err)
	}
	if mpint.Cmp(wantP, wantQ) == 0 || wantP.BitLen() != bits || wantQ.BitLen() != bits {
		t.Fatalf("pair %s, %s: want two distinct %d-bit primes", wantP, wantQ, bits)
	}
	engines := map[string]mpint.PrimeSearch{"D=1 unverified": testEngine(t).PrimeSearch(), "host": hostLoop{}.PrimeSearch()}
	for _, d := range []int{1, 2, 3} {
		engines[fmt.Sprintf("D=%d", d)] = checkedSet(t, d, CheckedConfig{VerifyFraction: 0.25, VerifySeed: 3}).PrimeSearch()
	}
	killed := checkedSet(t, 3, CheckedConfig{})
	killed.Devices()[1].SetFaultInjector(gpu.NewFaultInjector(gpu.FaultConfig{Seed: 1, KillAtLaunch: 2}))
	engines["D=3, member 1 killed"] = killed.PrimeSearch()
	for name, search := range engines {
		for call := 0; call < 10; call++ {
			r := mpint.NewRNG(seed)
			p, q, err := search.Pair(r, bits)
			if err != nil {
				t.Fatalf("%s call %d: %v", name, call, err)
			}
			if mpint.Cmp(p, wantP) != 0 || mpint.Cmp(q, wantQ) != 0 || *r != *want {
				t.Fatalf("%s call %d: (%s, %s), the host loop says (%s, %s)", name, call, p, q, wantP, wantQ)
			}
		}
	}
	st := killed.Stats()
	if dead := killed.Devices()[1].Stats(); dead.Health != gpu.DeviceFailed || dead.FaultAborts == 0 {
		t.Fatalf("member 1 was never killed: %+v", st)
	}
	if st.Steals == 0 {
		t.Fatalf("the dead member's rounds were not stolen: %+v", st)
	}
}

// TestCheckedTableIUnderCorruption: Table I's arithmetic ops and the prime search
// run under the executor's discipline like every other op — with every element
// verified, launches silently corrupted half the time are caught and retried
// (a flipped Miller–Rabin verdict among them), and what comes back is the host
// loop's vector and the host walk's prime.
func TestCheckedTableIUnderCorruption(t *testing.T) {
	c := checkedEngine(t,
		gpu.FaultConfig{Seed: 23, CorruptProb: 0.5},
		CheckedConfig{VerifyFraction: 1, VerifySeed: 23, MaxRetries: 12})
	var host hostLoop
	r := mpint.NewRNG(24)
	a, b := randVec(r, 16, r.RandBits(160)), randVec(r, 16, r.RandBits(96))
	for round := 0; round < 8; round++ {
		want, _ := host.MulVec(a, b)
		got, err := c.MulVec(a, b)
		if err != nil {
			t.Fatal(err)
		}
		sameVec(t, "mul_vec under corruption", got, want)
		wantP, _ := mpint.HostSearch.Prime(mpint.NewRNG(uint64(round)), 40)
		gotP, err := c.PrimeSearch().Prime(mpint.NewRNG(uint64(round)), 40)
		if err != nil {
			t.Fatal(err)
		}
		if mpint.Cmp(gotP, wantP) != 0 {
			t.Fatalf("seed %d: prime %s under corruption, the host loop says %s", round, gotP, wantP)
		}
	}
	if st, dev := c.Stats(), gpu.Sum(c.Devices()); dev.FaultCorruptions == 0 || st.Retries == 0 || st.HostShards != 0 {
		t.Fatalf("corrupted launches should be caught and retried on the device: %+v, device %+v", st, dev)
	}
}

// TestPoisonedPrimeLaneNeverVerifies: full verification rejects a window of
// round-0 verdicts in which a composite's was flipped (the walk would take it
// for a survivor, and a later flip for a prime) and one in which a prime's was
// (the walk would pass over the prime), in a window of many candidates and in
// one of a candidate's later rounds, so at VerifyFraction = 1 neither reaches
// the walk.
func TestPoisonedPrimeLaneNeverVerifies(t *testing.T) {
	r := mpint.NewRNG(7)
	prime := r.RandPrime(64)
	composite := mpint.Mul(r.RandPrime(32), r.RandPrime(32))
	ns := []mpint.Nat{composite, prime, mpint.AddWord(composite, 2), prime}
	as := []mpint.Nat{mpint.FromUint64(2), mpint.FromUint64(3), mpint.FromUint64(5), mpint.SubWord(prime, 2)}
	for name, cands := range map[string][]mpint.Nat{"window": ns, "one candidate": ns[1:2]} {
		op, err := newMillerRabinOp(make([]mpint.Nat, len(as)), cands, as)
		if err != nil {
			t.Fatal(err)
		}
		if err := runOnHost(&op); err != nil {
			t.Fatal(err)
		}
		mb := &member{rng: mpint.NewRNG(1)}
		if !mb.spotCheck(&op, 1) {
			t.Fatalf("%s: a clean window failed verification", name)
		}
		for lane := range as {
			op.Poison(lane)
			if mb.spotCheck(&op, 1) {
				t.Fatalf("%s: lane %d poisoned to %s and verified", name, lane, op.out[lane])
			}
			op.Poison(lane)
		}
		if name == "window" && (!op.out[1].IsOne() || !op.out[0].IsZero()) {
			t.Fatalf("verdicts %v: want the prime to pass and the composite to fail", op.out)
		}
	}
}

// testDecKey is a Paillier key of the given size as decrypt_crt_vec takes it,
// with its factorisation.
func testDecKey(t testing.TB, r *mpint.RNG, bits int) (DecryptKey, *mpint.CRT) {
	t.Helper()
	for {
		p, q := r.RandPrime(bits/2), r.RandPrime(bits/2)
		if mpint.Cmp(p, q) == 0 {
			continue
		}
		crt, err := mpint.NewCRT(p, q)
		if err != nil {
			t.Fatal(err)
		}
		if key, ok := decKey(crt, p, q); ok {
			return key, crt
		}
	}
}

// TestFusedDescriptorsUnderCorruption: with half of all launches silently
// corrupted and every element verified, a poisoned plaintext out of
// decrypt_crt_vec and a poisoned pack out of shift_pack_vec are caught by their
// textbook recomputation, retried, and come back bit-exact — 40 ops each, the
// device kept in rotation so every op keeps going through it.
func TestFusedDescriptorsUnderCorruption(t *testing.T) {
	r := mpint.NewRNG(0xF05ED)
	key, crt := testDecKey(t, r, 256)
	n := crt.N()
	n2 := mpint.NewMont(mpint.Mul(n, n))
	pts := randVec(r, 11, n)
	cts := make([]mpint.Nat, len(pts))
	for i, pt := range pts {
		cts[i] = crt.Encrypt(pt, r.RandCoprime(n))
	}
	const slots, slotBits = 3, 64
	packs := (len(cts) + slots - 1) / slots // the last holds two of three
	wantPacks, err := hostLoop{}.ShiftPackVec(cts, slots, slotBits, n2)
	if err != nil || len(wantPacks) != packs {
		t.Fatalf("%d packs, error %v", len(wantPacks), err)
	}

	c := checkedEngine(t,
		gpu.FaultConfig{Seed: 23, CorruptProb: 0.5},
		CheckedConfig{VerifyFraction: 1, VerifySeed: 23, MaxRetries: 12})
	for op := 0; op < 40; op++ {
		opened, err := c.DecryptVec(cts, key)
		if err != nil {
			t.Fatal(err)
		}
		packed, err := c.ShiftPackVec(cts, slots, slotBits, n2)
		if err != nil {
			t.Fatal(err)
		}
		sameVec(t, "decrypt_crt_vec under corruption", opened, pts)
		sameVec(t, "shift_pack_vec under corruption", packed, wantPacks)
	}
	st, dev := c.Stats(), gpu.Sum(c.Devices())
	if dev.FaultCorruptions == 0 || st.Retries == 0 || st.HostShards != 0 {
		t.Fatalf("want corruptions caught and retried on the device, none served by the host: %+v, device %+v", st, dev)
	}
}
