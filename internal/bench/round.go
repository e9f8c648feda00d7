package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"flbooster/internal/fl"
)

// roundJSON is where Round writes its machine-readable report.
const roundJSON = "BENCH_round.json"

// Round-anatomy experiment parameters: an unpacked HAFLO profile so the
// nonce-pool depth (== the gradient dimension) covers every client batch, a
// chunk size that splits a batch into three pipeline chunks, and a modelled
// per-value model-compute cost charged identically to the baseline and the
// optimized variant so the overlap is measured against priced work, not
// free work.
const (
	roundGradDim     = 48
	roundRounds      = 3
	roundChunk       = 16
	roundCompPerVal  = 500 * time.Nanosecond
	roundMaxInflight = 4
	roundFanout      = 2
	roundGroups      = 2
)

// roundModes lists the protocol variants the experiment sweeps, in reporting
// order. Every mode runs a seed-baseline profile (no nonce pool, sequential
// waves) against the optimized profile (per-round pool rearm + wave overlap)
// and asserts the aggregates match bit for bit.
var roundModes = []string{"plain", "chunked", "defended", "tree", "classic"}

// roundRow is one protocol mode's baseline-vs-optimized cell.
type roundRow struct {
	Mode string `json:"mode"`
	// BaselineSimNs / OptimizedSimNs are the cumulative end-to-end round
	// costs (TotalSimOverlapped) over the experiment's rounds.
	BaselineSimNs  int64   `json:"baseline_sim_ns"`
	OptimizedSimNs int64   `json:"optimized_sim_ns"`
	Speedup        float64 `json:"speedup"`
	// BitExact reports every optimized round decrypting bit-identically to
	// the same-seed baseline round.
	BitExact bool `json:"bit_exact"`
	// PoolHits/PoolMisses are the optimized run's nonce-pool counters; the
	// rearm contract is hits with zero misses from the first batch on.
	PoolHits   int64 `json:"pool_hits"`
	PoolMisses int64 `json:"pool_misses"`
}

// roundReportFile is the BENCH_round.json schema.
type roundReportFile struct {
	KeyBits         int        `json:"key_bits"`
	Parties         int        `json:"parties"`
	GradDim         int        `json:"grad_dim"`
	Rounds          int        `json:"rounds"`
	Chunk           int        `json:"chunk"`
	CompSimPerValNs int64      `json:"comp_sim_per_value_ns"`
	Rows            []roundRow `json:"rows"`
	// RecoveryBitExact reports the crash-recovered optimized round (journal
	// replay + restored nonce cursor) matching the uninterrupted run.
	RecoveryBitExact bool `json:"recovery_bit_exact"`
	// Anatomy is the final optimized plain round's per-phase cost table;
	// Dominant names its most expensive phase.
	Anatomy  *fl.RoundAnatomy `json:"anatomy"`
	Dominant string           `json:"dominant"`
	// Speedup is the headline: the plain mode's end-to-end round improvement.
	Speedup  float64 `json:"speedup"`
	BitExact bool    `json:"bit_exact"`
}

// roundProfile builds one mode's profile. The optimized variant arms the
// nonce pool at the batch width and turns on compute/upload overlap; both
// variants price the same model compute so the comparison isolates the
// round-path optimizations.
func (r *Runner) roundProfile(keyBits int, mode string, optimized bool) fl.Profile {
	p := fl.NewProfile(fl.SystemHAFLO, keyBits, r.cfg.Parties)
	p.Device = r.cfg.Device
	p.Seed = r.cfg.Seed
	p.Overlap.CompSimPerValue = roundCompPerVal
	switch mode {
	case "chunked":
		p.Chunk = roundChunk
	case "defended":
		p.Defense = fl.DefensePolicy{Groups: roundGroups, Combiner: fl.CombineFedAvg}
	case "tree":
		p.Cohort = fl.CohortPolicy{Fanout: roundFanout, MaxInflight: roundMaxInflight}
	case "classic":
		p.ClassicKey = true
	}
	if optimized {
		p.NoncePool = roundGradDim
		p.Overlap.Enabled = true
	}
	return p
}

// roundGrads builds the round's deterministic per-client gradient vectors.
func roundGrads(round, parties int) [][]float64 {
	grads := make([][]float64, parties)
	for c := range grads {
		g := make([]float64, roundGradDim)
		for i := range g {
			g[i] = 0.3 * math.Sin(float64((round*parties+c)*roundGradDim+i+1))
		}
		grads[c] = g
	}
	return grads
}

// roundRun drives `rounds` secure-aggregation rounds over one context and
// returns the per-round aggregates, the cumulative overlapped sim cost, and
// the last round's report (for its anatomy).
func (r *Runner) roundRun(ctx *fl.Context, rounds int) ([][]float64, time.Duration, *fl.RoundReport, error) {
	fed := fl.NewFederation(ctx)
	defer fed.Close()
	sums := make([][]float64, 0, rounds)
	var last fl.RoundReport
	for rd := 0; rd < rounds; rd++ {
		sum, rep, err := fed.SecureAggregateReport(roundGrads(rd, ctx.Profile.Parties))
		if err != nil {
			return nil, 0, nil, err
		}
		sums = append(sums, sum)
		last = rep
	}
	return sums, ctx.Costs.Snapshot().TotalSimOverlapped(), &last, nil
}

// bitExactRounds compares two per-round aggregate sequences bit for bit.
func bitExactRounds(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for rd := range a {
		if len(a[rd]) != len(b[rd]) {
			return false
		}
		for i := range a[rd] {
			if math.Float64bits(a[rd][i]) != math.Float64bits(b[rd][i]) {
				return false
			}
		}
	}
	return true
}

// roundRecovery runs the optimized plain profile with a journal, stops the
// coordinator after two completed rounds, recovers a fresh one from the
// store, and checks the recovered third round against an uninterrupted run.
func (r *Runner) roundRecovery(keyBits int, want [][]float64) (bool, error) {
	store := fl.NewMemStore()
	p := r.roundProfile(keyBits, "plain", true)

	ctx, err := fl.NewContext(p)
	if err != nil {
		return false, err
	}
	r.attachObs(ctx, "round-recover-pre")
	j, err := fl.NewJournal(store)
	if err != nil {
		return false, err
	}
	fed := fl.NewFederation(ctx)
	fed.AttachJournal(j)
	got := make([][]float64, 0, roundRounds)
	for rd := 0; rd < roundRounds-1; rd++ {
		sum, err := fed.SecureAggregate(roundGrads(rd, p.Parties))
		if err != nil {
			fed.Close()
			return false, err
		}
		got = append(got, sum)
	}
	fed.Close() // the "crash": the coordinator is gone, the journal survives

	ctx2, err := fl.NewContext(p)
	if err != nil {
		return false, err
	}
	r.attachObs(ctx2, "round-recover-post")
	fed2, _, err := fl.Recover(ctx2, store)
	if err != nil {
		return false, err
	}
	defer fed2.Close()
	sum, err := fed2.SecureAggregate(roundGrads(roundRounds-1, p.Parties))
	if err != nil {
		return false, err
	}
	got = append(got, sum)
	return bitExactRounds(got, want), nil
}

// Round measures the end-to-end secure-aggregation round — not an isolated
// HE microbenchmark — across five protocol variants, comparing the seed
// baseline against the optimized round path (per-batch nonce-pool rearm,
// fixed-base g^m on classic keys, compute/upload wave overlap). Every
// optimized round must decrypt bit-identically to its baseline, the
// crash-recovered round must match the uninterrupted run, and the optimized
// path must never be slower; at production keys (≥2048 bits) the plain-round
// speedup must clear 1.15x. The final optimized round's per-phase anatomy is
// printed and recorded. Results go to w and to BENCH_round.json.
func (r *Runner) Round(w io.Writer) error {
	keyBits := 0
	for _, k := range r.cfg.KeyBits {
		if k > keyBits {
			keyBits = k
		}
	}
	header(w, fmt.Sprintf(
		"Round — end-to-end round anatomy: baseline vs optimized path, %d-bit key, %d parties, dim %d, %d rounds",
		keyBits, r.cfg.Parties, roundGradDim, roundRounds))
	fmt.Fprintf(w, "%-9s %14s %14s %9s %7s %7s %8s\n",
		"Mode", "BaselineSim", "OptimizedSim", "Speedup", "Exact", "Hits", "Misses")

	report := roundReportFile{
		KeyBits:         keyBits,
		Parties:         r.cfg.Parties,
		GradDim:         roundGradDim,
		Rounds:          roundRounds,
		Chunk:           roundChunk,
		CompSimPerValNs: int64(roundCompPerVal),
		BitExact:        true,
	}
	var plainOpt [][]float64
	for _, mode := range roundModes {
		base, err := fl.NewContext(r.roundProfile(keyBits, mode, false))
		if err != nil {
			return fmt.Errorf("bench: round %s baseline: %w", mode, err)
		}
		r.attachObs(base, "round-"+mode+"-base")
		baseSums, baseSim, _, err := r.roundRun(base, roundRounds)
		if err != nil {
			return fmt.Errorf("bench: round %s baseline: %w", mode, err)
		}

		opt, err := fl.NewContext(r.roundProfile(keyBits, mode, true))
		if err != nil {
			return fmt.Errorf("bench: round %s optimized: %w", mode, err)
		}
		r.attachObs(opt, "round-"+mode+"-opt")
		optSums, optSim, rep, err := r.roundRun(opt, roundRounds)
		if err != nil {
			return fmt.Errorf("bench: round %s optimized: %w", mode, err)
		}

		row := roundRow{
			Mode:           mode,
			BaselineSimNs:  int64(baseSim),
			OptimizedSimNs: int64(optSim),
			Speedup:        float64(baseSim) / float64(optSim),
			BitExact:       bitExactRounds(baseSums, optSums),
		}
		if opt.Pool != nil {
			st := opt.Pool.Stats()
			row.PoolHits, row.PoolMisses = st.Hits, st.Misses
		}
		if !row.BitExact {
			report.BitExact = false
		}
		report.Rows = append(report.Rows, row)
		fmt.Fprintf(w, "%-9s %14s %14s %8.2fx %7v %7d %8d\n",
			mode, fmtDur(baseSim), fmtDur(optSim), row.Speedup, row.BitExact,
			row.PoolHits, row.PoolMisses)

		if mode == "plain" {
			plainOpt = optSums
			report.Speedup = row.Speedup
			report.Anatomy = rep.Anatomy
			if rep.Anatomy != nil {
				report.Dominant = rep.Anatomy.Dominant()
			}
		}
	}

	ok, err := r.roundRecovery(keyBits, plainOpt)
	if err != nil {
		return fmt.Errorf("bench: round recovery: %w", err)
	}
	report.RecoveryBitExact = ok
	if !ok {
		report.BitExact = false
	}
	fmt.Fprintf(w, "\ncrash-recovered optimized round bit-exact with uninterrupted run: %v\n", ok)
	if report.Anatomy != nil {
		fmt.Fprintf(w, "\n%s", report.Anatomy.Table())
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(roundJSON, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	switch {
	case !report.BitExact:
		return fmt.Errorf("bench: optimized round path diverged from the baseline (see %s)", roundJSON)
	case roundSlowdown(report.Rows):
		return fmt.Errorf("bench: optimized round path slower than the baseline (see %s)", roundJSON)
	case keyBits >= 2048 && report.Speedup < 1.15:
		return fmt.Errorf("bench: plain-round speedup %.3fx below the 1.15x floor at %d-bit keys (see %s)",
			report.Speedup, keyBits, roundJSON)
	}
	fmt.Fprintf(w, "\nplain round %.2fx end-to-end, bit-exact across all modes; wrote %s\n",
		report.Speedup, roundJSON)
	return nil
}

// roundSlowdown reports any mode where the optimized path lost ground.
func roundSlowdown(rows []roundRow) bool {
	for _, row := range rows {
		if row.OptimizedSimNs > row.BaselineSimNs {
			return true
		}
	}
	return false
}
