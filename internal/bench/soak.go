package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"flbooster/internal/fl"
	"flbooster/internal/flnet"
	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/quant"
)

// The multi-fault chaos soak: a long run of secure-aggregation rounds under
// every fault class the platform claims to survive at once — seeded network
// chaos (drop/duplicate/reorder), injected device faults behind the checked
// engine, coordinator kill-and-recover at journal boundaries, and client
// drop/rejoin churn. Every completed round's result is checked bit-for-bit
// against a plain-arithmetic oracle (silent corruption is the one
// unforgivable outcome), and every failed round must surface a typed
// *fl.RoundError.

// SoakConfig parameterizes one soak run. All randomness derives from Seed:
// the same config replays the same fault schedule exactly.
type SoakConfig struct {
	Seed    uint64 `json:"seed"`
	Rounds  int    `json:"rounds"`
	Parties int    `json:"parties"`
	KeyBits int    `json:"key_bits"`
	// Dim is the gradient dimension per client.
	Dim int `json:"dim"`
	// Quorum and PhaseTimeout shape the round policy (quorum < parties is
	// what lets chaos drop traffic without failing every round).
	Quorum       int           `json:"quorum"`
	PhaseTimeout time.Duration `json:"phase_timeout_ns"`
	// Network chaos probabilities, applied per message send.
	DropProb    float64 `json:"drop_prob"`
	DupProb     float64 `json:"dup_prob"`
	ReorderProb float64 `json:"reorder_prob"`
	// DeviceFaults arms the GPU fault injector (aborts, silent corruption,
	// OOMs) behind the checked engine.
	DeviceFaults bool `json:"device_faults"`
	// CrashProb is the per-round probability the coordinator is killed at a
	// journal boundary (round-start or aggregated, chosen by the schedule)
	// and recovered from the journal.
	CrashProb float64 `json:"crash_prob"`
	// ChurnProb is the per-round probability a client departs; it rejoins
	// RejoinAfter round boundaries later.
	ChurnProb   float64 `json:"churn_prob"`
	RejoinAfter int     `json:"rejoin_after"`
	// Adversaries arms the Byzantine injector with this many compromised
	// clients; the attack model rotates per round through the pre-drawn
	// schedule, composing with every other fault class.
	Adversaries int `json:"adversaries"`
	// DefenseGroups > 1 arms group-wise robust aggregation (trimmed-mean,
	// DefenseTrim groups per side) for every round of the soak.
	DefenseGroups int `json:"defense_groups"`
	DefenseTrim   int `json:"defense_trim"`
}

// DefaultSoakConfig returns the standard chaos mix at a given scale.
func DefaultSoakConfig(seed uint64, rounds, parties, keyBits int) SoakConfig {
	return SoakConfig{
		Seed:          seed,
		Rounds:        rounds,
		Parties:       parties,
		KeyBits:       keyBits,
		Dim:           8,
		Quorum:        parties - 1,
		PhaseTimeout:  200 * time.Millisecond,
		DropProb:      0.06,
		DupProb:       0.12,
		ReorderProb:   0.12,
		DeviceFaults:  true,
		CrashProb:     0.12,
		ChurnProb:     0.15,
		RejoinAfter:   2,
		Adversaries:   1,
		DefenseGroups: 3,
		DefenseTrim:   1,
	}
}

// SoakSummary is the committed record of a soak run. It carries only
// deterministic fields (counts, not wall-clock), so the same seed commits
// the same summary byte-for-byte.
type SoakSummary struct {
	Config SoakConfig `json:"config"`
	// Completed + Failed == Config.Rounds; every round resolves one way.
	Completed int `json:"completed_rounds"`
	Failed    int `json:"failed_rounds"`
	// Crashes counts coordinator kills, Recoveries journal recoveries
	// (always equal when the run finishes), ResumedRounds the rounds that
	// replayed a journaled aggregate instead of re-gathering.
	Crashes       int `json:"coordinator_crashes"`
	Recoveries    int `json:"recoveries"`
	ResumedRounds int `json:"resumed_rounds"`
	// Churn counters.
	Departures int `json:"client_departures"`
	Rejoins    int `json:"client_rejoins"`
	// Degraded counts completed rounds that dropped at least one client;
	// Duplicates and Retries total the per-round report counters.
	Degraded   int   `json:"degraded_rounds"`
	Duplicates int   `json:"duplicate_messages"`
	Retries    int64 `json:"send_retries"`
	// FailuresByPhase types every failed round by the phase its RoundError
	// names — the proof that no failure was untyped.
	FailuresByPhase map[string]int `json:"failures_by_phase"`
	// Byzantine counters: completed rounds whose included set held at least
	// one compromised client, completed rounds that ran the group defense,
	// and — zero tolerance — defended rounds whose aggregate escaped the
	// trimmed-mean bound (outside the honest groups' coordinate range while
	// the poisoned-group count was within the trim budget).
	AttackedRounds  int `json:"attacked_rounds"`
	DefendedRounds  int `json:"defended_rounds"`
	BoundViolations int `json:"bound_violations"`
	// JournalRecords is the final length of the epoch journal.
	JournalRecords int `json:"journal_records"`
	// The two zero-tolerance counters: completed rounds whose result
	// diverged from the arithmetic oracle, and failures that were not typed
	// *fl.RoundError values.
	Mismatches    int `json:"silent_corruption_mismatches"`
	UntypedErrors int `json:"untyped_errors"`
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

func drawSoakSchedule(cfg SoakConfig) soakSchedule {
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

// RunSoak executes the chaos soak and returns its summary. The run itself
// never fails on protocol faults — those are the point — only on harness
// errors (bad config, broken context construction).
func (cfg SoakConfig) validate() error {
	switch {
	case cfg.Rounds < 1:
		return fmt.Errorf("bench: soak needs at least one round")
	case cfg.Parties < 2:
		return fmt.Errorf("bench: soak needs at least two parties")
	case cfg.Dim < 1:
		return fmt.Errorf("bench: soak needs a positive gradient dimension")
	case cfg.RejoinAfter < 1:
		return fmt.Errorf("bench: soak rejoin delay must be positive")
	}
	return nil
}

func RunSoak(cfg SoakConfig) (SoakSummary, error) {
	if err := cfg.validate(); err != nil {
		return SoakSummary{}, err
	}
	sched := drawSoakSchedule(cfg)
	sum := SoakSummary{Config: cfg, FailuresByPhase: make(map[string]int)}

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
	if cfg.Adversaries > 0 {
		// Factor 3 keeps boosted uploads inside the quantizer's ±1 bound
		// (gradients are drawn in [-0.25, 0.25)) so the attack is never
		// masked by clamping.
		profile.Byz = fl.AdversaryConfig{
			Seed: cfg.Seed ^ 0xb42, Kind: fl.AttackSignFlip, Count: cfg.Adversaries,
			Factor: 3, NoiseStd: 0.5, Drift: 0.5,
		}
	}
	if cfg.DefenseGroups > 1 {
		profile.Defense = fl.DefensePolicy{
			Groups: cfg.DefenseGroups, Combiner: fl.CombineTrimmedMean, Trim: cfg.DefenseTrim,
		}
	}
	if cfg.DeviceFaults {
		profile.Faults.Inject = gpu.FaultConfig{
			Seed:        cfg.Seed ^ 0xdead,
			AbortProb:   0.05,
			CorruptProb: 0.05,
			OOMProb:     0.05,
		}
		// Full result verification: with silent kernel corruption in the
		// fault mix, anything less would let corrupt ciphertexts through —
		// the soak's zero-mismatch bar is only honest if the checked layer
		// is actually armed to catch what the injector throws.
		profile.Faults.Check = ghe.CheckedConfig{VerifyFraction: 1, VerifySeed: cfg.Seed}
	}

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
						return sum, fmt.Errorf("bench: soak rejoin %s: %w", name, err)
					}
					delete(rejoinAt, name)
					departed = ""
					sum.Rejoins++
				}
			}
			if sched.churnDraw[r] && departed == "" {
				name := fl.ClientName(sched.churnTarget[r])
				if err := fed.Leave(name); err != nil {
					return sum, fmt.Errorf("bench: soak departure %s: %w", name, err)
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
		if adv := fed.Adversary(); adv != nil {
			// Rotate the attack model per the pre-drawn schedule. Re-set on
			// every iteration (not just fresh rounds) so a recovered
			// coordinator's fresh injector replays the same attack.
			if err := adv.SetKind(sched.attack[r]); err != nil {
				return sum, fmt.Errorf("bench: soak attack rotation: %w", err)
			}
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
					return sum, fmt.Errorf("bench: soak recovery: %w", err)
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
		attacked := false
		for _, name := range rep.Included {
			if i, ierr := fl.ClientIndex(name); ierr == nil && adv.IsMalicious(i) {
				attacked = true
			}
		}
		if attacked {
			sum.AttackedRounds++
		}
		if rep.Defense != nil {
			sum.DefendedRounds++
			want, groups, oerr := soakDefendedOracle(quant, uploads, rep, profile.Defense, cfg.Parties)
			if oerr != nil {
				return sum, fmt.Errorf("bench: soak defended oracle round %d: %w", r+1, oerr)
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
				return sum, fmt.Errorf("bench: soak oracle round %d: %w", r+1, oerr)
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

// soakJSON is the committed soak summary artifact.
const soakJSON = "BENCH_soak.json"

// Soak runs the chaos soak at the runner's scale and writes both the human
// table and the BENCH_soak.json summary.
func (r *Runner) Soak(w io.Writer) error {
	keyBits := r.cfg.KeyBits[0]
	rounds := 60
	cfg := DefaultSoakConfig(r.cfg.Seed, rounds, r.cfg.Parties, keyBits)
	header(w, fmt.Sprintf("Chaos soak — %d multi-fault rounds (%d parties, %d-bit keys)",
		cfg.Rounds, cfg.Parties, cfg.KeyBits))
	fmt.Fprintf(w, "faults: drop %.0f%%, dup %.0f%%, reorder %.0f%%, device faults %v, crash %.0f%%/round, churn %.0f%%/round (rejoin after %d)\n",
		cfg.DropProb*100, cfg.DupProb*100, cfg.ReorderProb*100, cfg.DeviceFaults,
		cfg.CrashProb*100, cfg.ChurnProb*100, cfg.RejoinAfter)
	fmt.Fprintf(w, "adversary: %d compromised client(s), rotating attack per round; defense: trimmed-mean over %d groups (trim %d)\n\n",
		cfg.Adversaries, cfg.DefenseGroups, cfg.DefenseTrim)

	start := time.Now()
	sum, err := RunSoak(cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	row := func(name string, v interface{}) { fmt.Fprintf(w, "%-28s %v\n", name, v) }
	row("rounds completed", fmt.Sprintf("%d/%d", sum.Completed, cfg.Rounds))
	row("rounds failed (typed)", sum.Failed)
	for phase, n := range sum.FailuresByPhase {
		row("  failed in "+phase, n)
	}
	row("coordinator crashes", sum.Crashes)
	row("journal recoveries", sum.Recoveries)
	row("rounds resumed at broadcast", sum.ResumedRounds)
	row("client departures", sum.Departures)
	row("client rejoins", sum.Rejoins)
	row("degraded rounds", sum.Degraded)
	row("duplicate messages dropped", sum.Duplicates)
	row("send retries", sum.Retries)
	row("attacked rounds", sum.AttackedRounds)
	row("defended rounds", sum.DefendedRounds)
	row("trimming-bound violations", sum.BoundViolations)
	row("journal records", sum.JournalRecords)
	row("silent corruption", sum.Mismatches)
	row("untyped errors", sum.UntypedErrors)
	fmt.Fprintf(w, "\nwall time %s\n", fmtDur(elapsed))

	if sum.Mismatches > 0 || sum.UntypedErrors > 0 || sum.BoundViolations > 0 {
		return fmt.Errorf("bench: soak detected %d silent corruptions, %d untyped errors, %d bound violations",
			sum.Mismatches, sum.UntypedErrors, sum.BoundViolations)
	}

	blob, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(soakJSON, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "summary written to %s\n", soakJSON)
	return nil
}
