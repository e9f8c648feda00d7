// The multi-fault chaos soak lives in an external test package: it drives
// the fl layer only through its exported API, the way a deployment does.
package fl_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"flbooster/internal/fl"
	"flbooster/internal/flnet"
	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/quant"
)

// The soak runs secure-aggregation rounds under every fault class the
// platform claims to survive at once — seeded network chaos
// (drop/duplicate/reorder), injected device faults behind the checked engine,
// coordinator kill-and-recover at journal boundaries, client drop/rejoin
// churn, and a rotating Byzantine adversary against the trimmed-mean defense.
// Every completed round's result is checked bit-for-bit against a
// plain-arithmetic oracle (silent corruption is the one unforgivable
// outcome), and every failed round must surface a typed *fl.RoundError.

// soakConfig parameterizes one soak run. All randomness derives from Seed:
// the same config replays the same fault schedule exactly.
type soakConfig struct {
	Seed    uint64
	Rounds  int
	Parties int
	KeyBits int
	// Dim is the gradient dimension per client.
	Dim int
	// Quorum and PhaseTimeout shape the round policy (quorum < parties is
	// what lets chaos drop traffic without failing every round).
	Quorum       int
	PhaseTimeout time.Duration
	// Network chaos probabilities, applied per message send.
	DropProb    float64
	DupProb     float64
	ReorderProb float64
	// CrashProb is the per-round probability the coordinator is killed at a
	// journal boundary (round-start or aggregated, chosen by the schedule)
	// and recovered from the journal.
	CrashProb float64
	// ChurnProb is the per-round probability a client departs; it rejoins
	// RejoinAfter round boundaries later.
	ChurnProb   float64
	RejoinAfter int
	// Adversaries compromised clients; the attack model rotates per round
	// through the pre-drawn schedule, composing with every other fault class.
	Adversaries int
	// DefenseGroups and DefenseTrim arm group-wise trimmed-mean aggregation
	// for every round.
	DefenseGroups int
	DefenseTrim   int
}

// soakSummary counts what a run survived. It carries only deterministic
// fields (counts, not wall-clock), so the same seed gives the same summary.
type soakSummary struct {
	Config soakConfig
	// Completed + Failed == Config.Rounds; every round resolves one way.
	Completed int
	Failed    int
	// Crashes counts coordinator kills, Recoveries journal recoveries
	// (always equal when the run finishes), ResumedRounds the rounds that
	// replayed a journaled aggregate instead of re-gathering.
	Crashes       int
	Recoveries    int
	ResumedRounds int
	Departures    int
	Rejoins       int
	// Degraded counts completed rounds that dropped at least one client;
	// Duplicates and Retries total the per-round report counters.
	Degraded   int
	Duplicates int
	Retries    int64
	// FailuresByPhase types every failed round by the phase its RoundError
	// names — the proof that no failure was untyped.
	FailuresByPhase map[string]int
	// Byzantine counters: completed rounds whose included set held at least
	// one compromised client, completed rounds that ran the group defense,
	// and — zero tolerance — defended rounds whose aggregate escaped the
	// trimmed-mean bound (outside the honest groups' coordinate range while
	// the poisoned-group count was within the trim budget).
	AttackedRounds  int
	DefendedRounds  int
	BoundViolations int
	// JournalRecords is the final length of the epoch journal.
	JournalRecords int
	// The two zero-tolerance counters: completed rounds whose result
	// diverged from the arithmetic oracle, and failures that were not typed
	// *fl.RoundError values.
	Mismatches    int
	UntypedErrors int
}

// soakSchedule is the pre-drawn fate of every round. Drawing everything up
// front from one RNG keeps the schedule identical no matter how many
// coordinator restarts happen mid-run.
type soakSchedule struct {
	grads       [][][]float64 // [round][party][dim]
	crash       []fl.EventKind
	churnDraw   []bool
	churnTarget []int
	attack      []fl.AttackKind // per-round attack model rotation
}

func drawSoakSchedule(cfg soakConfig) soakSchedule {
	rng := mpint.NewRNG(cfg.Seed ^ 0x50a4) // salt the schedule stream off the key-gen seed
	sched := soakSchedule{
		grads:       make([][][]float64, cfg.Rounds),
		crash:       make([]fl.EventKind, cfg.Rounds),
		churnDraw:   make([]bool, cfg.Rounds),
		churnTarget: make([]int, cfg.Rounds),
		attack:      make([]fl.AttackKind, cfg.Rounds),
	}
	attacks := fl.KnownAttacks()
	for r := 0; r < cfg.Rounds; r++ {
		sched.grads[r] = make([][]float64, cfg.Parties)
		for c := 0; c < cfg.Parties; c++ {
			g := make([]float64, cfg.Dim)
			for i := range g {
				g[i] = rng.Float64()*0.5 - 0.25
			}
			sched.grads[r][c] = g
		}
		if rng.Float64() < cfg.CrashProb {
			sched.crash[r] = fl.EventRoundStart
			if rng.Float64() < 0.5 {
				sched.crash[r] = fl.EventAggregated
			}
		}
		sched.churnDraw[r] = rng.Float64() < cfg.ChurnProb
		sched.churnTarget[r] = rng.Intn(cfg.Parties)
		// Pre-drawn like everything else, so crashed re-runs of a round
		// replay the identical attack.
		sched.attack[r] = attacks[rng.Intn(len(attacks))]
	}
	return sched
}

// runSoak executes the chaos soak and returns its summary. The run itself
// never fails on protocol faults — those are the point — only on harness
// errors (broken context construction, a churn call the roster refuses).
func runSoak(cfg soakConfig) (soakSummary, error) {
	sched := drawSoakSchedule(cfg)
	sum := soakSummary{Config: cfg, FailuresByPhase: make(map[string]int)}

	profile := fl.NewProfile(fl.SystemFLBooster, cfg.KeyBits, cfg.Parties)
	profile.Seed = cfg.Seed
	profile.Device = gpu.SmallTestDevice()
	profile.RBits = 14
	profile.Round = fl.RoundPolicy{
		Quorum:       cfg.Quorum,
		PhaseTimeout: cfg.PhaseTimeout,
		MaxRetries:   2,
		Backoff:      time.Millisecond,
	}
	// Factor 3 keeps boosted uploads inside the quantizer's ±1 bound
	// (gradients are drawn in [-0.25, 0.25)) so the attack is never masked
	// by clamping.
	profile.Byz = fl.AdversaryConfig{
		Seed: cfg.Seed ^ 0xb42, Kind: fl.AttackSignFlip, Count: cfg.Adversaries,
		Factor: 3, NoiseStd: 0.5, Drift: 0.5,
	}
	profile.Defense = fl.DefensePolicy{
		Groups: cfg.DefenseGroups, Combiner: fl.CombineTrimmedMean, Trim: cfg.DefenseTrim,
	}
	profile.Faults.Inject = gpu.FaultConfig{
		Seed:        cfg.Seed ^ 0xdead,
		AbortProb:   0.05,
		CorruptProb: 0.05,
		StallProb:   0.05,
		OOMProb:     0.05,
	}
	// Full result verification: with silent kernel corruption in the fault
	// mix, anything less would let corrupt ciphertexts through — the soak's
	// zero-mismatch bar is only honest if the checked layer is actually armed
	// to catch what the injector throws.
	profile.Faults.Check = ghe.CheckedConfig{VerifyFraction: 1, VerifySeed: cfg.Seed}

	store := fl.NewMemStore()
	instance := 0 // coordinator incarnation, salts each chaos stream
	var crashArm fl.EventKind
	crashArmed := false

	boot := func() (*fl.Federation, error) {
		ctx, err := fl.NewContext(profile)
		if err != nil {
			return nil, err
		}
		fed, _, err := fl.Recover(ctx, store)
		if err != nil {
			return nil, err
		}
		fed.Transport = flnet.NewChaosTransport(fed.Transport, flnet.ChaosConfig{
			Seed:        cfg.Seed ^ uint64(instance)*0x9E3779B97F4A7C15,
			DropProb:    cfg.DropProb,
			DupProb:     cfg.DupProb,
			ReorderProb: cfg.ReorderProb,
		})
		instance++
		fed.Journal().Fail = func(rec fl.JournalRecord) error {
			if crashArmed && rec.Kind == crashArm {
				crashArmed = false
				return fl.ErrCoordinatorCrash
			}
			return nil
		}
		return fed, nil
	}

	fed, err := boot()
	if err != nil {
		return sum, err
	}
	defer func() { fed.Close() }()

	quant := fed.Ctx.Quant
	churnApplied := make([]bool, cfg.Rounds)
	rejoinAt := make(map[string]int)
	departed := ""

	for r := 0; r < cfg.Rounds; r++ {
		// Round-boundary churn, applied exactly once per round so a crashed
		// attempt replays against the same roster.
		if !churnApplied[r] {
			churnApplied[r] = true
			for name, due := range rejoinAt {
				if due <= r {
					if err := fed.Rejoin(name); err != nil {
						return sum, fmt.Errorf("soak rejoin %s: %w", name, err)
					}
					delete(rejoinAt, name)
					departed = ""
					sum.Rejoins++
				}
			}
			if sched.churnDraw[r] && departed == "" {
				name := fl.ClientName(sched.churnTarget[r])
				if err := fed.Leave(name); err != nil {
					return sum, fmt.Errorf("soak departure %s: %w", name, err)
				}
				departed = name
				rejoinAt[name] = r + cfg.RejoinAfter
				sum.Departures++
			}
		}
		if sched.crash[r] != "" && !crashArmed && sum.Crashes == sum.Recoveries {
			// Arm at most one kill per scheduled round; a recovered re-run of
			// the same round proceeds unarmed.
			crashArm = sched.crash[r]
			crashArmed = true
			sched.crash[r] = ""
		}
		// Rotate the attack model per the pre-drawn schedule. Re-set on every
		// iteration (not just fresh rounds) so a recovered coordinator's fresh
		// injector replays the same attack.
		if err := fed.Adversary().SetKind(sched.attack[r]); err != nil {
			return sum, fmt.Errorf("soak attack rotation: %w", err)
		}

		result, rep, err := fed.SecureAggregateReport(sched.grads[r])
		if err != nil {
			if errors.Is(err, fl.ErrCoordinatorCrash) {
				// The coordinator "process" died at a durable boundary: tear
				// it down and recover a fresh one from the journal, then
				// re-run the same round.
				sum.Crashes++
				crashArmed = false
				fed.Close()
				if fed, err = boot(); err != nil {
					return sum, fmt.Errorf("soak recovery: %w", err)
				}
				sum.Recoveries++
				r--
				continue
			}
			sum.Failed++
			var rerr *fl.RoundError
			if errors.As(err, &rerr) {
				sum.FailuresByPhase[string(rerr.Phase)]++
			} else {
				sum.UntypedErrors++
			}
			continue
		}

		sum.Completed++
		if rep.Resumed {
			sum.ResumedRounds++
		}
		if rep.Degraded() {
			sum.Degraded++
		}
		sum.Duplicates += rep.Duplicates
		sum.Retries += rep.Retries

		// The arithmetic oracle: quantize the included clients' uploads (as
		// attacked — the adversary's rewrites are deterministic and keyed on
		// the replayed round ID), sum in plain integers per group, dequantize,
		// and combine exactly the way the protocol does. HE is exact on
		// quantized values, so a completed round that is not bit-identical to
		// this is silent corruption — whatever chaos, faults, crashes, churn,
		// or attacks the round survived.
		adv := fed.Adversary()
		uploads := make([][]float64, cfg.Parties)
		for i := range uploads {
			uploads[i] = adv.Apply(rep.Round, i, sched.grads[r][i])
		}
		for _, name := range rep.Included {
			if i, ierr := fl.ClientIndex(name); ierr == nil && adv.IsMalicious(i) {
				sum.AttackedRounds++
				break
			}
		}
		if rep.Defense != nil {
			sum.DefendedRounds++
			want, groups, oerr := soakDefendedOracle(quant, uploads, rep, profile.Defense, cfg.Parties)
			if oerr != nil {
				return sum, fmt.Errorf("soak defended oracle round %d: %w", r+1, oerr)
			}
			if !bitsEqual(result, want) {
				sum.Mismatches++
			}
			if soakBoundViolated(result, groups, rep, profile.Defense, adv, cfg.Parties) {
				sum.BoundViolations++
			}
		} else {
			want, oerr := soakOracle(quant, uploads, rep, cfg.Parties)
			if oerr != nil {
				return sum, fmt.Errorf("soak oracle round %d: %w", r+1, oerr)
			}
			if !bitsEqual(result, want) {
				sum.Mismatches++
			}
		}
	}

	recs, err := fed.Journal().Records()
	if err != nil {
		return sum, err
	}
	sum.JournalRecords = len(recs)
	return sum, nil
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// soakOracle recomputes a completed round's expected result without HE:
// quantized integer sums over the included clients, dequantized for k
// contributors, scaled by parties/k exactly as the decrypt phase does.
func soakOracle(q *quant.Quantizer, grads [][]float64, rep fl.RoundReport, parties int) ([]float64, error) {
	if len(rep.Included) == 0 {
		return nil, fmt.Errorf("completed round included nobody")
	}
	var sums []uint64
	for _, name := range rep.Included {
		i, err := fl.ClientIndex(name)
		if err != nil {
			return nil, err
		}
		vals := q.QuantizeVec(grads[i])
		if sums == nil {
			sums = make([]uint64, len(vals))
		}
		for j, v := range vals {
			sums[j] += v
		}
	}
	k := len(rep.Included)
	want, err := q.DequantizeSumVec(sums, k)
	if err != nil {
		return nil, err
	}
	if k < parties {
		scale := float64(parties) / float64(k)
		for j := range want {
			want[j] *= scale
		}
	}
	return want, nil
}

// soakDefendedOracle recomputes a defended round's expected result in
// plaintext: per reported group, quantized integer sums over the group's
// (possibly attacked) uploads, dequantized at group size, reduced to the
// group mean, combined by the same pure combiner the clients ran, and scaled
// by the party count. It also returns the plaintext group updates for the
// trimming-bound check.
func soakDefendedOracle(q *quant.Quantizer, uploads [][]float64, rep fl.RoundReport, policy fl.DefensePolicy, parties int) ([]float64, []fl.GroupUpdate, error) {
	d := rep.Defense
	if len(d.GroupMembers) == 0 {
		return nil, nil, fmt.Errorf("defended round reported no group members")
	}
	groups := make([]fl.GroupUpdate, len(d.GroupMembers))
	for g, members := range d.GroupMembers {
		var sums []uint64
		for _, name := range members {
			i, err := fl.ClientIndex(name)
			if err != nil {
				return nil, nil, err
			}
			vals := q.QuantizeVec(uploads[i])
			if sums == nil {
				sums = make([]uint64, len(vals))
			}
			for j, v := range vals {
				sums[j] += v
			}
		}
		mean, err := q.DequantizeSumVec(sums, len(members))
		if err != nil {
			return nil, nil, err
		}
		for j := range mean {
			mean[j] /= float64(len(members))
		}
		groups[g] = fl.GroupUpdate{Mean: mean, Size: len(members)}
	}
	agg, err := policy.NewAggregator()
	if err != nil {
		return nil, nil, err
	}
	combined, _, err := agg.Combine(groups)
	if err != nil {
		return nil, nil, err
	}
	for j := range combined {
		combined[j] *= float64(parties)
	}
	return combined, groups, nil
}

// soakBoundViolated checks the trimmed-mean guarantee on a defended round:
// when the number of groups containing a compromised client is within the
// trim budget, every coordinate of the defended aggregate (at mean scale)
// must lie within the honest groups' coordinate range, modulo float
// rounding. Outside those preconditions the theorem makes no promise and
// the check passes vacuously.
func soakBoundViolated(result []float64, groups []fl.GroupUpdate, rep fl.RoundReport, policy fl.DefensePolicy, adv *fl.Adversary, parties int) bool {
	poisoned := 0
	honest := make([]fl.GroupUpdate, 0, len(groups))
	for g, members := range rep.Defense.GroupMembers {
		mal := false
		for _, name := range members {
			if i, err := fl.ClientIndex(name); err == nil && adv.IsMalicious(i) {
				mal = true
			}
		}
		if mal {
			poisoned++
		} else {
			honest = append(honest, groups[g])
		}
	}
	if poisoned == 0 || poisoned > policy.EffectiveTrim(len(groups)) || len(honest) == 0 {
		return false
	}
	for j := range result {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, gu := range honest {
			lo = math.Min(lo, gu.Mean[j])
			hi = math.Max(hi, gu.Mean[j])
		}
		v := result[j] / float64(parties)
		eps := 1e-9 * (1 + math.Abs(lo) + math.Abs(hi))
		if v < lo-eps || v > hi+eps {
			return true
		}
	}
	return false
}

// TestSoakSmoke is the CI-sized chaos soak (`make soak-smoke`): a seeded
// multi-fault run — network chaos, device faults, coordinator kills with
// journal recovery, client churn, a rotating adversary under the defense —
// run twice. The two summaries must be equal (the soak is a pure function of
// the seed, restarts and all), and the run must keep the zero-tolerance
// invariants: no completed round deviates from the arithmetic oracle, no
// failure is untyped, no defended aggregate escapes the trimming bound. The
// seed and the elevated crash/churn probabilities are chosen so the short run
// still exercises at least one coordinator recovery and one full
// depart/rejoin cycle.
func TestSoakSmoke(t *testing.T) {
	cfg := soakConfig{
		Seed: 3, Rounds: 12, Parties: 4, KeyBits: 128, Dim: 8,
		Quorum: 3, PhaseTimeout: 200 * time.Millisecond,
		DropProb: 0.06, DupProb: 0.12, ReorderProb: 0.12,
		CrashProb: 0.3, ChurnProb: 0.3, RejoinAfter: 2,
		Adversaries: 1, DefenseGroups: 3, DefenseTrim: 1,
	}
	run := func(t *testing.T) soakSummary {
		t.Helper()
		start := time.Now()
		sum, err := runSoak(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed > 30*time.Second {
			t.Fatalf("smoke soak took %v, budget 30s", elapsed)
		}
		return sum
	}
	sum := run(t)
	t.Run("Deterministic", func(t *testing.T) {
		if again := run(t); !reflect.DeepEqual(sum, again) {
			t.Fatalf("soak summaries diverged across identical runs:\n%+v\n%+v", sum, again)
		}
	})
	if sum.Mismatches != 0 {
		t.Fatalf("silent corruption in %d rounds: %+v", sum.Mismatches, sum)
	}
	if sum.UntypedErrors != 0 {
		t.Fatalf("%d untyped round failures: %+v", sum.UntypedErrors, sum)
	}
	if sum.BoundViolations != 0 {
		t.Fatalf("defended aggregate escaped the trimming bound %d times: %+v", sum.BoundViolations, sum)
	}
	if sum.Completed+sum.Failed != cfg.Rounds {
		t.Fatalf("rounds unaccounted for: %+v", sum)
	}
	if sum.Crashes == 0 || sum.Recoveries != sum.Crashes {
		t.Fatalf("smoke run exercised no coordinator recovery: %+v", sum)
	}
	if sum.Departures == 0 || sum.Rejoins == 0 {
		t.Fatalf("smoke run exercised no churn cycle: %+v", sum)
	}
	if sum.Completed == 0 {
		t.Fatalf("no round completed under chaos: %+v", sum)
	}
	if sum.AttackedRounds == 0 || sum.DefendedRounds == 0 {
		t.Fatalf("smoke run exercised no adversary/defense round: %+v", sum)
	}
	t.Logf("smoke soak: %d/%d completed, %d crashes, %d departures, %d attacked",
		sum.Completed, cfg.Rounds, sum.Crashes, sum.Departures, sum.AttackedRounds)
}
