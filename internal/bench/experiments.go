package bench

import (
	"fmt"
	"io"

	"flbooster/internal/datasets"
	"flbooster/internal/fl"
	"flbooster/internal/models"
)

// Fig1 reproduces Figure 1: FATE's per-epoch running time for the four
// benchmark models, split into HE operations, communication, and the rest,
// at the first configured key size.
func (r *Runner) Fig1(w io.Writer) error {
	keyBits := r.cfg.KeyBits[0]
	header(w, fmt.Sprintf("Fig. 1 — FATE epoch anatomy at %d-bit keys (modelled seconds, scale %g)", keyBits, r.cfg.Scale))
	fmt.Fprintf(w, "%-12s %-10s %12s %12s %12s %12s %8s %8s\n",
		"Model", "Dataset", "Total", "HE", "Comm", "Other", "HE%", "Comm%")
	for _, model := range ModelNames() {
		for _, spec := range datasets.AllSpecs() {
			res, err := r.runEpochs(model, fl.SystemFATE, keyBits, spec, 1)
			if err != nil {
				return err
			}
			_, he, comm := res.Costs.Shares()
			fmt.Fprintf(w, "%-12s %-10s %12s %12s %12s %12s %7.1f%% %7.1f%%\n",
				model, spec.Name,
				fmtDur(res.Costs.TotalSim()), fmtDur(res.Costs.HESim),
				fmtDur(res.Costs.CommSim), fmtDur(res.Costs.OtherWall),
				he*100, comm*100)
		}
	}
	return nil
}

// grid walks model × key × dataset, the rows of Tables III–V, and hands
// row the one-epoch cells of systems, in their order.
func (r *Runner) grid(systems []fl.System, row func(cells []EpochResult)) error {
	for _, model := range ModelNames() {
		for _, keyBits := range r.cfg.KeyBits {
			for _, spec := range datasets.AllSpecs() {
				cells := make([]EpochResult, len(systems))
				for i, sys := range systems {
					var err error
					if cells[i], err = r.runEpochs(model, sys, keyBits, spec, 1); err != nil {
						return err
					}
				}
				row(cells)
			}
		}
	}
	return nil
}

// secs is a cell's modelled epoch time in seconds.
func secs(c EpochResult) float64 { return c.Costs.TotalSim().Seconds() }

// Table3 reproduces Table III: average per-epoch running time for FATE,
// HAFLO, and FLBooster across models, datasets, and key sizes.
func (r *Runner) Table3(w io.Writer) error {
	header(w, fmt.Sprintf("Table III — average epoch time (modelled seconds, scale %g)", r.cfg.Scale))
	fmt.Fprintf(w, "%-12s %6s  %-10s %12s %12s %12s %10s %10s\n",
		"Model", "Key", "Dataset", "FATE", "HAFLO", "FLBooster", "vs FATE", "vs HAFLO")
	return r.grid([]fl.System{fl.SystemFATE, fl.SystemHAFLO, fl.SystemFLBooster}, func(c []EpochResult) {
		fate, haflo, flb := secs(c[0]), secs(c[1]), secs(c[2])
		speedFATE, speedHAFLO := 0.0, 0.0
		if flb > 0 {
			speedFATE, speedHAFLO = fate/flb, haflo/flb
		}
		fmt.Fprintf(w, "%-12s %6d  %-10s %12.4f %12.4f %12.4f %9.1fx %9.1fx\n",
			c[0].Model, c[0].KeyBits, c[0].Dataset, fate, haflo, flb, speedFATE, speedHAFLO)
	})
}

// Table4 reproduces Table IV: HE-operation throughput in gradient instances
// per second for the three systems.
func (r *Runner) Table4(w io.Writer) error {
	header(w, fmt.Sprintf("Table IV — HE throughput (instances/second, scale %g)", r.cfg.Scale))
	fmt.Fprintf(w, "%-12s %6s  %-10s %14s %14s %14s\n",
		"Model", "Key", "Dataset", "FATE", "HAFLO", "FLBooster")
	return r.grid([]fl.System{fl.SystemFATE, fl.SystemHAFLO, fl.SystemFLBooster}, func(c []EpochResult) {
		fmt.Fprintf(w, "%-12s %6d  %-10s %14.0f %14.0f %14.0f\n",
			c[0].Model, c[0].KeyBits, c[0].Dataset,
			c[0].Costs.Throughput(), c[1].Costs.Throughput(), c[2].Costs.Throughput())
	})
}

// Fig6 reproduces Figure 6: SM utilization of HAFLO (coarse resource
// allocation) versus FLBooster (fine-grained resource manager) per model and
// key size.
func (r *Runner) Fig6(w io.Writer) error {
	header(w, "Fig. 6 — GPU SM utilization in HE operations")
	fmt.Fprintf(w, "%-12s %6s %12s %12s\n", "Model", "Key", "HAFLO", "FLBooster")
	spec := datasets.SyntheticSpec
	for _, model := range ModelNames() {
		for _, keyBits := range r.cfg.KeyBits {
			var util [2]float64
			for i, sys := range []fl.System{fl.SystemHAFLO, fl.SystemFLBooster} {
				res, err := r.runEpochs(model, sys, keyBits, spec, 1)
				if err != nil {
					return err
				}
				util[i] = res.Utilization
			}
			fmt.Fprintf(w, "%-12s %6d %11.1f%% %11.1f%%\n",
				model, keyBits, util[0]*100, util[1]*100)
		}
	}
	return nil
}

// Table5 reproduces Table V: the ablation study — FLBooster versus the
// w/o-GHE and w/o-BC variants.
func (r *Runner) Table5(w io.Writer) error {
	header(w, fmt.Sprintf("Table V — ablation: module running time (modelled seconds, scale %g)", r.cfg.Scale))
	fmt.Fprintf(w, "%-12s %6s  %-10s %12s %12s %12s\n",
		"Model", "Key", "Dataset", "FLBooster", "w/o GHE", "w/o BC")
	return r.grid([]fl.System{fl.SystemFLBooster, fl.SystemNoGHE, fl.SystemNoBC}, func(c []EpochResult) {
		fmt.Fprintf(w, "%-12s %6d  %-10s %12.4f %12.4f %12.4f\n",
			c[0].Model, c[0].KeyBits, c[0].Dataset, secs(c[0]), secs(c[1]), secs(c[2]))
	})
}

// Fig7 reproduces Figure 7: FLBooster's compression ratio per model and key
// size (≈ k/32 with the paper's r+b = 32 slots).
func (r *Runner) Fig7(w io.Writer) error {
	header(w, "Fig. 7 — batch compression ratio (plaintext values per ciphertext)")
	fmt.Fprintf(w, "%-12s %6s %12s %14s\n", "Model", "Key", "Measured", "Theoretical")
	spec := datasets.SyntheticSpec
	for _, model := range ModelNames() {
		for _, keyBits := range r.cfg.KeyBits {
			res, err := r.runEpochs(model, fl.SystemFLBooster, keyBits, spec, 1)
			if err != nil {
				return err
			}
			theo := float64(keyBits / 32)
			fmt.Fprintf(w, "%-12s %6d %11.1fx %13.1fx\n",
				model, keyBits, res.Costs.CompressionRatio(), theo)
		}
	}
	return nil
}

// Table6 reproduces Table VI: component time shares (others / HE / comm) of
// Homo LR at the first key size, per dataset and system.
func (r *Runner) Table6(w io.Writer) error {
	keyBits := r.cfg.KeyBits[0]
	header(w, fmt.Sprintf("Table VI — component shares, Homo LR at %d-bit keys", keyBits))
	fmt.Fprintf(w, "%-10s %-12s %9s %9s %9s %14s\n",
		"Dataset", "System", "Others", "HE ops", "Comm", "Total (s)")
	for _, spec := range datasets.AllSpecs() {
		for _, sys := range []fl.System{fl.SystemFATE, fl.SystemHAFLO, fl.SystemFLBooster} {
			res, err := r.runEpochs("Homo LR", sys, keyBits, spec, 1)
			if err != nil {
				return err
			}
			other, he, comm := res.Costs.Shares()
			fmt.Fprintf(w, "%-10s %-12s %8.1f%% %8.1f%% %8.1f%% %14s\n",
				spec.Name, sys, other*100, he*100, comm*100, fmtDur(res.Costs.TotalSim()))
		}
	}
	return nil
}

// Fig8 reproduces Figure 8: loss-versus-modelled-time convergence curves on
// the Synthetic dataset for FATE, HAFLO, and FLBooster.
func (r *Runner) Fig8(w io.Writer) error {
	keyBits := r.cfg.KeyBits[0]
	header(w, fmt.Sprintf("Fig. 8 — convergence on Synthetic at %d-bit keys (cumulative modelled seconds → loss)", keyBits))
	for _, model := range ModelNames() {
		fmt.Fprintf(w, "\n%s:\n", model)
		fmt.Fprintf(w, "  %-12s", "System")
		for e := 1; e <= r.cfg.Epochs; e++ {
			fmt.Fprintf(w, "  %18s", fmt.Sprintf("epoch %d (t, loss)", e))
		}
		fmt.Fprintln(w)
		for _, sys := range []fl.System{fl.SystemFATE, fl.SystemHAFLO, fl.SystemFLBooster} {
			res, err := r.runEpochs(model, sys, keyBits, datasets.SyntheticSpec, r.cfg.Epochs)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "  %-12s", sys)
			for _, p := range res.Curve {
				fmt.Fprintf(w, "  %18s", fmt.Sprintf("(%.3fs, %.4f)", p.Sim.Seconds(), p.Loss))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Table7 reproduces Table VII: the convergence bias (Eq. 15) of FLBooster's
// quantized pipeline against the exact plaintext baseline after the
// configured number of epochs.
func (r *Runner) Table7(w io.Writer) error {
	keyBits := r.cfg.KeyBits[0]
	header(w, fmt.Sprintf("Table VII — convergence bias at %d-bit keys, %d epochs", keyBits, r.cfg.Epochs))
	fmt.Fprintf(w, "%-12s", "Model")
	for _, spec := range datasets.AllSpecs() {
		fmt.Fprintf(w, " %10s", spec.Name)
	}
	fmt.Fprintln(w)
	for _, model := range ModelNames() {
		fmt.Fprintf(w, "%-12s", model)
		for _, spec := range datasets.AllSpecs() {
			exact, err := r.runEpochs(model, oracle, 0, spec, r.cfg.Epochs)
			if err != nil {
				return err
			}
			res, err := r.runEpochs(model, fl.SystemFLBooster, keyBits, spec, r.cfg.Epochs)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %9.2f%%", models.ConvergenceBias(exact.Loss, res.Loss)*100)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// All runs every experiment in the paper's order.
func (r *Runner) All(w io.Writer) error {
	steps := []struct {
		name string
		fn   func(io.Writer) error
	}{
		{"table2", r.Table2}, {"fig1", r.Fig1}, {"table3", r.Table3}, {"table4", r.Table4},
		{"fig6", r.Fig6}, {"table5", r.Table5}, {"fig7", r.Fig7},
		{"table6", r.Table6}, {"fig8", r.Fig8}, {"table7", r.Table7},
	}
	for _, s := range steps {
		if err := s.fn(w); err != nil {
			return fmt.Errorf("bench: %s: %w", s.name, err)
		}
	}
	return nil
}

// Table2 reproduces Table II: statistics of the evaluation datasets, as
// generated at the configured scale, next to the paper's full-scale counts.
func (r *Runner) Table2(w io.Writer) error {
	header(w, fmt.Sprintf("Table II — dataset statistics (generated at scale %g vs paper full scale)", r.cfg.Scale))
	fmt.Fprintf(w, "%-10s %12s %12s %10s %10s %14s %14s\n",
		"Dataset", "Instances", "Features", "AvgNNZ", "Pos%", "Paper inst.", "Paper feat.")
	for _, spec := range datasets.AllSpecs() {
		ds, err := r.dataset(spec)
		if err != nil {
			return err
		}
		st := ds.Stats()
		fmt.Fprintf(w, "%-10s %12d %12d %10.1f %9.1f%% %14d %14d\n",
			st.Name, st.Instances, st.Features, st.AvgNNZ, st.Positives*100,
			spec.Instances, spec.Features)
	}
	return nil
}
