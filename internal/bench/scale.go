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

// scaleJSON is where Scale writes its machine-readable report.
const scaleJSON = "BENCH_scale.json"

// Cross-device sweep parameters: a small gradient so the sweep measures
// coordination — not HE arithmetic — a reduced key that keeps 10⁵ simulated
// clients affordable, and a quantizer narrow enough that the sum of 10⁵
// contributions still fits one plaintext (RBits + log₂ N ≤ 63).
const (
	scaleKeyBits     = 64
	scaleRBits       = 16
	scaleGradDim     = 4
	scaleFanout      = 16
	scaleMaxInflight = 64
)

// scaleRow is one (client count, aggregation mode) cell of the sweep.
type scaleRow struct {
	Clients int    `json:"clients"`
	Mode    string `json:"mode"` // "flat" or "tree"
	// Fanout/Depth/Partials describe the aggregation hierarchy (tree only):
	// Partials counts the level sums forwarded up (the root's hop included).
	Fanout   int   `json:"fanout,omitempty"`
	Depth    int   `json:"tree_depth,omitempty"`
	Partials int64 `json:"tree_partials,omitempty"`
	// PeakLiveCts is the coordinator's high-water simultaneously-live
	// aggregate-path ciphertext count — the memory claim under test — and
	// PeakPerClient its ratio to the cohort size (1.0 for flat, →0 for tree).
	PeakLiveCts   int64   `json:"peak_live_cts"`
	PeakPerClient float64 `json:"peak_live_cts_per_client"`
	// CritPathSimNs is the modelled end-to-end round time at the streamed
	// phases' critical path; CommBytes the round's wire traffic.
	CritPathSimNs int64 `json:"crit_path_sim_ns"`
	CommBytes     int64 `json:"comm_bytes"`
	WallNs        int64 `json:"wall_ns"`
	// MatchesFlat reports the tree round decrypting bit-identically to the
	// same-seed flat round (tree rows only).
	MatchesFlat bool `json:"matches_flat,omitempty"`
}

// scaleReport is the BENCH_scale.json schema.
type scaleReport struct {
	KeyBits     int        `json:"key_bits"`
	RBits       int        `json:"r_bits"`
	GradDim     int        `json:"grad_dim"`
	Fanout      int        `json:"fanout"`
	MaxInflight int        `json:"max_inflight"`
	Rows        []scaleRow `json:"rows"`
	// BitExact is the sweep-wide conjunction of MatchesFlat.
	BitExact bool `json:"bit_exact"`
}

// scaleProfile builds the N-client sweep profile; fanout 0 keeps the flat
// protocol.
func (r *Runner) scaleProfile(clients, fanout int) fl.Profile {
	p := fl.NewProfile(fl.SystemHAFLO, scaleKeyBits, clients)
	p.Device = r.cfg.Device
	p.Seed = r.cfg.Seed
	p.RBits = scaleRBits
	if fanout > 0 {
		p.Cohort = fl.CohortPolicy{Fanout: fanout, MaxInflight: scaleMaxInflight}
	}
	return p
}

// scaleGrads builds N deterministic small gradient vectors.
func scaleGrads(clients int) [][]float64 {
	grads := make([][]float64, clients)
	for c := range grads {
		g := make([]float64, scaleGradDim)
		for i := range g {
			g[i] = 0.25 * math.Sin(float64(c*scaleGradDim+i))
		}
		grads[c] = g
	}
	return grads
}

// scaleRound runs one N-client secure-aggregation round and fills a row.
func (r *Runner) scaleRound(clients, fanout int) ([]float64, scaleRow, error) {
	ctx, err := fl.NewContext(r.scaleProfile(clients, fanout))
	if err != nil {
		return nil, scaleRow{}, err
	}
	mode := "flat"
	if fanout > 0 {
		mode = "tree"
	}
	r.attachObs(ctx, fmt.Sprintf("scale-%s-%d", mode, clients))
	fed := fl.NewFederation(ctx)
	defer fed.Close()
	start := time.Now()
	sum, rep, err := fed.SecureAggregateReport(scaleGrads(clients))
	if err != nil {
		return nil, scaleRow{}, fmt.Errorf("bench: %s round with %d clients: %w", mode, clients, err)
	}
	cs := ctx.Costs.Snapshot()
	row := scaleRow{
		Clients:       clients,
		Mode:          mode,
		PeakLiveCts:   rep.PeakLiveCts,
		PeakPerClient: float64(rep.PeakLiveCts) / float64(clients),
		CritPathSimNs: int64(cs.TotalSim()),
		CommBytes:     cs.CommBytes,
		WallNs:        int64(time.Since(start)),
	}
	if ts := rep.Tree; ts != nil {
		row.Fanout = ts.Fanout
		row.Depth = ts.Depth
		row.Partials = ts.Forwards
	}
	return sum, row, nil
}

// Scale sweeps the simulated client count across flat and hierarchical
// aggregation, reporting the coordinator's peak live-ciphertext memory (per
// client) and the modelled critical-path round time, and asserting the tree
// round decrypts bit-identically to the flat one at every size. Results go
// to w and to BENCH_scale.json.
func (r *Runner) Scale(w io.Writer, sizes []int) error {
	if len(sizes) == 0 {
		sizes = []int{100, 1000, 10000, 100000}
	}
	header(w, fmt.Sprintf(
		"Scale — cross-device sweep: flat vs tree (fanout %d, window %d), %d-bit key, dim %d",
		scaleFanout, scaleMaxInflight, scaleKeyBits, scaleGradDim))
	fmt.Fprintf(w, "%9s %6s %14s %11s %14s %9s %6s\n",
		"Clients", "Mode", "PeakLiveCts", "Peak/Client", "CritPathSim", "Depth", "Exact")

	report := scaleReport{
		KeyBits:     scaleKeyBits,
		RBits:       scaleRBits,
		GradDim:     scaleGradDim,
		Fanout:      scaleFanout,
		MaxInflight: scaleMaxInflight,
		BitExact:    true,
	}
	for _, clients := range sizes {
		flatSum, flatRow, err := r.scaleRound(clients, 0)
		if err != nil {
			return err
		}
		treeSum, treeRow, err := r.scaleRound(clients, scaleFanout)
		if err != nil {
			return err
		}
		treeRow.MatchesFlat = len(flatSum) == len(treeSum)
		for i := range flatSum {
			if math.Float64bits(flatSum[i]) != math.Float64bits(treeSum[i]) {
				treeRow.MatchesFlat = false
			}
		}
		if !treeRow.MatchesFlat {
			report.BitExact = false
		}
		report.Rows = append(report.Rows, flatRow, treeRow)
		fmt.Fprintf(w, "%9d %6s %14d %11.4f %14s %9s %6s\n",
			clients, flatRow.Mode, flatRow.PeakLiveCts, flatRow.PeakPerClient,
			fmtDur(time.Duration(flatRow.CritPathSimNs)), "-", "-")
		fmt.Fprintf(w, "%9d %6s %14d %11.4f %14s %9d %6v\n",
			clients, treeRow.Mode, treeRow.PeakLiveCts, treeRow.PeakPerClient,
			fmtDur(time.Duration(treeRow.CritPathSimNs)), treeRow.Depth, treeRow.MatchesFlat)
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(scaleJSON, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	if !report.BitExact {
		return fmt.Errorf("bench: tree aggregation diverged from the flat protocol (see %s)", scaleJSON)
	}
	fmt.Fprintf(w, "\ntree rounds bit-exact with flat at every size; wrote %s\n", scaleJSON)
	return nil
}
