// The multi-fault chaos soak lives in an external test package: it drives
// the fl layer only through its exported API, the way a deployment does.
package fl_test

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
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
// coordinator kill-and-recover at journal boundaries, and client drop/rejoin
// churn. Every completed round's result is checked bit-for-bit against a
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
}

func drawSoakSchedule(cfg soakConfig) soakSchedule {
	rng := mpint.NewRNG(cfg.Seed ^ 0x50a4) // salt the schedule stream off the key-gen seed
	sched := soakSchedule{
		grads:       make([][][]float64, cfg.Rounds),
		crash:       make([]fl.EventKind, cfg.Rounds),
		churnDraw:   make([]bool, cfg.Rounds),
		churnTarget: make([]int, cfg.Rounds),
	}
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
			// A client parked for rejoin cannot leave before it is admitted.
			if name := fl.ClientName(sched.churnTarget[r]); sched.churnDraw[r] && departed == "" &&
				!slices.Contains(fed.Roster().Pending(), name) {
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

		// The arithmetic oracle: quantize the included clients' uploads, sum
		// in plain integers, dequantize and scale exactly the way the
		// protocol does. HE is exact on quantized values, so a completed
		// round that is not bit-identical to this is silent corruption —
		// whatever chaos, faults, crashes or churn the round survived.
		want, oerr := soakOracle(quant, sched.grads[r], rep, cfg.Parties)
		if oerr != nil {
			return sum, fmt.Errorf("soak oracle round %d: %w", r+1, oerr)
		}
		if !bitsEqual(result, want) {
			sum.Mismatches++
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

// smokeSoak is the CI-sized soak configuration at seed.
func smokeSoak(seed uint64) soakConfig {
	return soakConfig{
		Seed: seed, Rounds: 12, Parties: 4, KeyBits: 128, Dim: 8,
		Quorum: 3, PhaseTimeout: 200 * time.Millisecond,
		DropProb: 0.06, DupProb: 0.12, ReorderProb: 0.12,
		CrashProb: 0.3, ChurnProb: 0.3, RejoinAfter: 2,
	}
}

// soakRun runs cfg and holds its summary to the soak's invariants: no
// completed round deviating from the arithmetic oracle, no untyped failure,
// every round resolved one way or the other.
func soakRun(t *testing.T, cfg soakConfig) soakSummary {
	t.Helper()
	start := time.Now()
	sum, err := runSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("soak took %v, budget 30s", elapsed)
	}
	if sum.Mismatches != 0 {
		t.Fatalf("silent corruption in %d rounds: %+v", sum.Mismatches, sum)
	}
	if sum.UntypedErrors != 0 {
		t.Fatalf("%d untyped round failures: %+v", sum.UntypedErrors, sum)
	}
	if sum.Completed+sum.Failed != cfg.Rounds {
		t.Fatalf("rounds unaccounted for: %+v", sum)
	}
	return sum
}

// soakRerun runs cfg again and requires the summary of the first run: the
// soak is a pure function of the seed, restarts and all.
func soakRerun(t *testing.T, cfg soakConfig, first soakSummary) {
	t.Helper()
	if again := soakRun(t, cfg); !reflect.DeepEqual(first, again) {
		t.Fatalf("soak summaries diverged across identical runs:\n%+v\n%+v", first, again)
	}
}

// TestSoakSmoke is the CI-sized chaos soak (`make soak-smoke`): a seeded
// multi-fault run — network chaos, device faults, coordinator kills with
// journal recovery, client churn — run twice. The two summaries must be equal, and the run must keep the
// soak's invariants (soakRun). The seed and the elevated crash/churn
// probabilities are chosen so the short run still exercises at least one
// coordinator recovery and one full depart/rejoin cycle.
func TestSoakSmoke(t *testing.T) {
	cfg := smokeSoak(3)
	sum := soakRun(t, cfg)
	t.Run("Deterministic", func(t *testing.T) { soakRerun(t, cfg, sum) })
	if sum.Crashes == 0 || sum.Recoveries != sum.Crashes {
		t.Fatalf("smoke run exercised no coordinator recovery: %+v", sum)
	}
	if sum.Departures == 0 || sum.Rejoins == 0 {
		t.Fatalf("smoke run exercised no churn cycle: %+v", sum)
	}
	if sum.Completed == 0 {
		t.Fatalf("no round completed under chaos: %+v", sum)
	}
	t.Logf("smoke soak: %d/%d completed, %d crashes, %d departures",
		sum.Completed, cfg.Rounds, sum.Crashes, sum.Departures)
}

// TestSoakSeeds runs the smoke configuration at seeds 1–16, each twice, and
// holds every seed to the soak's invariants.
func TestSoakSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 16; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := smokeSoak(seed)
			soakRerun(t, cfg, soakRun(t, cfg))
		})
	}
}
