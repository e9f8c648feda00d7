package fl

import (
	"errors"
	"math"
	"path/filepath"
	"testing"

	"flbooster/internal/mpint"
	"flbooster/internal/obs"
)

// byzProfile is a CPU profile of six parties with a boosted (scale-10)
// single adversary; callers arm the defense on top.
func byzProfile() Profile {
	p := testProfile(SystemFATE)
	p.Parties = 6
	p.Byz = AdversaryConfig{Seed: 21, Kind: AttackScale, Count: 1, Factor: 10}
	return p
}

// byzGrads: small honest gradients so even the 10× boosted upload stays
// inside the quantizer's bound (no clamping masks the attack).
func byzGrads(parties, dim int) [][]float64 {
	out := make([][]float64, parties)
	for c := range out {
		g := make([]float64, dim)
		for i := range g {
			g[i] = 0.04 + 0.002*float64(c) - 0.003*float64(i)
		}
		out[c] = g
	}
	return out
}

func l2diff(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// honestOracle runs the same gradients through an all-honest, undefended
// same-seed federation — the ground truth the defended aggregate should
// track.
func honestOracle(t *testing.T, p Profile, grads [][]float64) []float64 {
	t.Helper()
	p.Byz = AdversaryConfig{}
	p.Defense = DefensePolicy{}
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	sum, err := fed.SecureAggregate(grads)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

// byzCorrelatedGrads draws honest gradients with the correlated shape of
// real FL updates: one shared descent direction in [-0.25, 0.25) plus ±0.02
// per-client jitter, so the group means form a tight honest cluster for a
// combiner to defend.
func byzCorrelatedGrads(seed uint64, parties, dim int) [][]float64 {
	rng := mpint.NewRNG(seed ^ 0xb52a)
	base := make([]float64, dim)
	for i := range base {
		base[i] = 0.5*rng.Float64() - 0.25
	}
	out := make([][]float64, parties)
	for c := range out {
		g := make([]float64, dim)
		for i := range g {
			g[i] = base[i] + 0.02*(2*rng.Float64()-1)
		}
		out[c] = g
	}
	return out
}

// TestDefendedRoundSuppressesScalingAdversary is the tentpole end-to-end:
// boosted clients poison an undefended aggregate; the trimmed-mean group
// defense pulls the result back near the honest oracle, at least minRatio
// times closer.
func TestDefendedRoundSuppressesScalingAdversary(t *testing.T) {
	// The robustness headline: 10 parties, 20% scaling adversaries boosting
	// ×25, 5 groups trimmed 2 a side (both adversaries tolerated even when
	// grouped apart), GradBound 8 so the boosted uploads are never clamped.
	headline := NewProfile(SystemFATE, 128, 10)
	headline.Seed = 1
	headline.GradBound = 8
	headline.Byz = AdversaryConfig{Seed: 1 ^ 0x1b2c, Kind: AttackScale, Fraction: 0.2, Factor: 25}

	for _, tc := range []struct {
		name     string
		p        Profile
		grads    [][]float64
		defense  DefensePolicy
		minRatio float64
	}{
		{"one boosted client", byzProfile(), byzGrads(6, 4), DefensePolicy{Groups: 3, Combiner: CombineTrimmedMean}, 3},
		{"two of ten boosted x25", headline, byzCorrelatedGrads(1, 10, 16), DefensePolicy{Groups: 5, Combiner: CombineTrimmedMean, Trim: 2}, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			honest := honestOracle(t, tc.p, tc.grads)
			run := func(defense DefensePolicy) ([]float64, RoundReport) {
				t.Helper()
				prof := tc.p
				prof.Defense = defense
				ctx, err := NewContext(prof)
				if err != nil {
					t.Fatal(err)
				}
				fed := NewFederation(ctx)
				defer fed.Close()
				sum, rep, err := fed.SecureAggregateReport(tc.grads)
				if err != nil {
					t.Fatal(err)
				}
				return sum, rep
			}

			attacked, rep := run(DefensePolicy{})
			if rep.Defense != nil {
				t.Fatal("undefended round should not carry a defense report")
			}
			defended, drep := run(tc.defense)
			if drep.Defense == nil {
				t.Fatal("defended round must carry a defense report")
			}
			if drep.Defense.Combiner != string(CombineTrimmedMean) || drep.Defense.Groups != tc.defense.Groups {
				t.Fatalf("defense report = %+v", drep.Defense)
			}
			if got := len(drep.Defense.GroupMembers); got != tc.defense.Groups {
				t.Fatalf("report lists %d groups' members, want %d", got, tc.defense.Groups)
			}

			dAtt, dDef := l2diff(attacked, honest), l2diff(defended, honest)
			if dAtt < tc.minRatio*dDef {
				t.Fatalf("defense too weak: attacked dev %v, defended dev %v, want ≥ %gx closer", dAtt, dDef, tc.minRatio)
			}
		})
	}
}

// TestDefendedFedAvgMatchesPlainRound: the FedAvg combiner behind the group
// interface reproduces the undefended aggregate (same seed, same honest
// clients) up to quantization/float tolerance — grouping alone changes
// nothing.
func TestDefendedFedAvgMatchesPlainRound(t *testing.T) {
	p := testProfile(SystemFLBooster)
	grads := byzGrads(p.Parties, 5)

	run := func(defense DefensePolicy) []float64 {
		t.Helper()
		prof := p
		prof.Defense = defense
		ctx, err := NewContext(prof)
		if err != nil {
			t.Fatal(err)
		}
		fed := NewFederation(ctx)
		defer fed.Close()
		sum, err := fed.SecureAggregate(grads)
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	plain := run(DefensePolicy{})
	grouped := run(DefensePolicy{Groups: 2, Combiner: CombineFedAvg})
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	tol := 4*ctx.Quant.MaxError() + 1e-9
	for i := range plain {
		if math.Abs(plain[i]-grouped[i]) > tol {
			t.Fatalf("slot %d: plain %v vs grouped fedavg %v (tol %v)", i, plain[i], grouped[i], tol)
		}
	}
}

// TestByzRoundsReplayBitExact: two same-seed federations under attack and
// defense produce bit-identical results round after round.
func TestByzRoundsReplayBitExact(t *testing.T) {
	p := byzProfile()
	p.Defense = DefensePolicy{Groups: 3, Combiner: CombineMedian}
	const rounds = 3
	grads := epochGrads(rounds, p.Parties, 4)

	runs := make([][][]float64, 2)
	for run := range runs {
		ctx, err := NewContext(p)
		if err != nil {
			t.Fatal(err)
		}
		fed := NewFederation(ctx)
		for r := 0; r < rounds; r++ {
			sum, err := fed.SecureAggregate(grads[r])
			if err != nil {
				t.Fatal(err)
			}
			runs[run] = append(runs[run], sum)
		}
		fed.Close()
	}
	for r := 0; r < rounds; r++ {
		if !sameBits(runs[0][r], runs[1][r]) {
			t.Fatalf("round %d diverged between same-seed runs", r+1)
		}
	}
}

// TestDefendedCrashRecoveryBitExact kills the coordinator at the aggregated
// boundary of a defended, attacked round and asserts the recovered epoch —
// which replays the journaled grouped aggregate — stays bit-identical to an
// uninterrupted run. Attack draws are keyed on round IDs, which replay.
func TestDefendedCrashRecoveryBitExact(t *testing.T) {
	const rounds, crashRound = 4, 2
	p := byzProfile()
	p.Defense = DefensePolicy{Groups: 3, Combiner: CombineTrimmedMean}
	grads := epochGrads(rounds, p.Parties, 4)

	refCtx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	refFed := NewFederation(refCtx)
	ref := make([][]float64, rounds)
	for r := 0; r < rounds; r++ {
		if ref[r], err = refFed.SecureAggregate(grads[r]); err != nil {
			t.Fatalf("reference round %d: %v", r+1, err)
		}
	}
	refFed.Close()

	store, err := OpenFileStore(filepath.Join(t.TempDir(), "byz.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	j, err := NewJournal(store)
	if err != nil {
		t.Fatal(err)
	}
	j.Fail = func(rec JournalRecord) error {
		if rec.Kind == EventAggregated && rec.Round == crashRound {
			return ErrCoordinatorCrash
		}
		return nil
	}
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	fed.AttachJournal(j)
	crashed := false
	for r := 0; r < rounds && !crashed; r++ {
		if _, err := fed.SecureAggregate(grads[r]); err != nil {
			if !errors.Is(err, ErrCoordinatorCrash) {
				t.Fatalf("round %d: %v", r+1, err)
			}
			crashed = true
		}
	}
	if !crashed {
		t.Fatal("crash hook never fired")
	}
	fed.Close()

	ctx2, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	fed2, state, err := Recover(ctx2, store)
	if err != nil {
		t.Fatal(err)
	}
	defer fed2.Close()
	if state.Resume == nil || state.Resume.Phase != PhaseBroadcast {
		t.Fatalf("expected a broadcast-boundary resume point, got %+v", state.Resume)
	}
	for r := crashRound - 1; r < rounds; r++ {
		sum, rep, err := fed2.SecureAggregateReport(grads[r])
		if err != nil {
			t.Fatalf("recovered round %d: %v", r+1, err)
		}
		if r+1 == crashRound && !rep.Resumed {
			t.Fatal("crash round should resume the journaled grouped aggregate")
		}
		if rep.Defense == nil {
			t.Fatalf("recovered round %d lost its defense report", r+1)
		}
		if !sameBits(sum, ref[r]) {
			t.Fatalf("recovered round %d diverged from the uninterrupted run", r+1)
		}
	}
}

// TestDefenseObservability: a defended, attacked, observed round publishes
// the byz/defense counters.
func TestDefenseObservability(t *testing.T) {
	p := byzProfile()
	p.Defense = DefensePolicy{Groups: 3}
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx.AttachObs(obs.New(p.Seed), "")
	fed := NewFederation(ctx)
	defer fed.Close()
	if _, _, err := fed.SecureAggregateReport(byzGrads(p.Parties, 3)); err != nil {
		t.Fatal(err)
	}
	reg := ctx.Obs.Metrics()
	pre := "fl." + ctx.obsPrefix + "."
	if got := reg.Counter(pre + "byz_attacks"); got != 1 {
		t.Errorf("byz_attacks = %d, want 1", got)
	}
	if got := reg.Counter(pre + "defense_groups"); got != 3 {
		t.Errorf("defense_groups = %d, want 3", got)
	}
	if got := reg.Counter(pre + "defense_rounds"); got != 1 {
		t.Errorf("defense_rounds = %d, want 1", got)
	}
	if got := reg.Counter(pre + "defense_trimmed"); got <= 0 {
		t.Errorf("defense_trimmed = %d, want > 0", got)
	}
}
