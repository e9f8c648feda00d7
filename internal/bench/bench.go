// Package bench is the experiment harness: for every table and figure in
// the paper's evaluation (Fig. 1, Tables III–VII, Figs. 6–8) it generates
// the workload, runs the competing systems through identical code paths,
// and prints rows in the paper's layout. See DESIGN.md §3 for the
// experiment index and EXPERIMENTS.md for the recorded paper-vs-measured
// comparison.
//
// Scale: paper cells are hours of a 4-server GPU cluster. The harness runs
// every experiment at a configurable dataset scale and key size, reporting
// the *modelled* end-to-end time (device cost model + Gigabit link model +
// measured model-compute) whose ratios are the reproduction target.
package bench

import (
	"fmt"
	"io"
	"time"

	"flbooster/internal/datasets"
	"flbooster/internal/fl"
	"flbooster/internal/models"
	"flbooster/internal/obs"
)

// Config controls experiment scale.
type Config struct {
	// Scale shrinks every dataset (instances and features) by this factor.
	Scale float64
	// KeyBits lists the key sizes to sweep (the paper uses 1024/2048/4096).
	KeyBits []int
	// Parties is the participant count (the paper's cluster has 4 servers).
	Parties int
	// Epochs bounds convergence experiments.
	Epochs int
	// BatchSize for SGD models.
	BatchSize int
	// Seed drives all randomness.
	Seed uint64
	// Observe attaches one observability bundle (sim-time span recorder +
	// metrics registry, seeded from Seed) to every context the runner builds,
	// so experiments emit traces and publish metrics.
	Observe bool
}

// Quick returns a configuration sized for laptop runs: heavily scaled
// datasets and reduced key sizes with the paper's 1:2:4 progression.
func Quick() Config {
	return Config{
		Scale:     0.0004,
		KeyBits:   []int{256, 512},
		Parties:   4,
		Epochs:    3,
		BatchSize: 64,
		Seed:      1,
	}
}

// Paper returns the paper's parameters (hours of compute at full scale —
// use only on a large machine with patience).
func Paper() Config {
	c := Quick()
	c.Scale = 1
	c.KeyBits = []int{1024, 2048, 4096}
	c.BatchSize = 1024
	c.Epochs = 10
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Scale <= 0 || c.Scale > 1:
		return fmt.Errorf("bench: scale must be in (0, 1], got %v", c.Scale)
	case len(c.KeyBits) == 0:
		return fmt.Errorf("bench: need at least one key size")
	case c.Parties < 2:
		return fmt.Errorf("bench: need at least two parties")
	case c.Epochs < 1:
		return fmt.Errorf("bench: need at least one epoch")
	case c.BatchSize < 1:
		return fmt.Errorf("bench: batch size must be positive")
	}
	return nil
}

// ModelNames lists the benchmark models in the paper's order.
func ModelNames() []string {
	return []string{"Homo LR", "Hetero LR", "Hetero SBT", "Hetero NN"}
}

// nnHidden is the Hetero NN interactive-layer width.
const nnHidden = 4

// oracle stands for the plaintext baseline in a run key: runEpochs trains it
// with no HE context.
const oracle fl.System = "plaintext"

// Runner caches datasets, HE contexts (key generation dominates setup cost)
// and runs across experiments, and exposes one method per table/figure.
type Runner struct {
	cfg  Config
	data map[string]*datasets.Dataset
	ctxs map[ctxKey]*fl.Context
	runs map[runKey]EpochResult

	obs     *obs.Obs      // shared observability bundle (nil unless cfg.Observe)
	obsCtxs []*fl.Context // every context attached to obs, for PublishMetrics
}

type ctxKey struct {
	sys  fl.System
	bits int
}

// runKey names one experiment cell: every table and figure that prints the
// cell reads the same run.
type runKey struct {
	model   string
	sys     fl.System
	bits    int
	dataset string
	epochs  int
}

// NewRunner validates the config and prepares caches.
func NewRunner(cfg Config) (*Runner, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Runner{
		cfg:  cfg,
		data: make(map[string]*datasets.Dataset),
		ctxs: make(map[ctxKey]*fl.Context),
		runs: make(map[runKey]EpochResult),
	}
	if cfg.Observe {
		r.obs = obs.New(cfg.Seed)
	}
	return r, nil
}

// Obs returns the runner's shared observability bundle (nil unless the
// config enabled Observe).
func (r *Runner) Obs() *obs.Obs { return r.obs }

// attachObs wires a context into the shared bundle under a unique label and
// registers it for PublishMetrics. No-op when observation is off.
func (r *Runner) attachObs(ctx *fl.Context, label string) {
	if r.obs == nil {
		return
	}
	ctx.AttachObs(r.obs, label)
	r.obsCtxs = append(r.obsCtxs, ctx)
}

// PublishMetrics writes every attached context's current statistics into the
// shared registry. No-op when observation is off.
func (r *Runner) PublishMetrics() {
	for _, ctx := range r.obsCtxs {
		ctx.PublishMetrics()
	}
}

// dataset returns the (cached) scaled dataset by spec name.
func (r *Runner) dataset(spec datasets.Spec) (*datasets.Dataset, error) {
	if ds, ok := r.data[spec.Name]; ok {
		return ds, nil
	}
	ds, err := datasets.Generate(spec.Scaled(r.cfg.Scale), r.cfg.Seed)
	if err != nil {
		return nil, err
	}
	r.data[spec.Name] = ds
	return ds, nil
}

// context returns a (cached) HE context for a system at a key size, with
// every counter it publishes — costs, devices, executor — reset for the
// caller's experiment.
func (r *Runner) context(sys fl.System, keyBits int) (*fl.Context, error) {
	k := ctxKey{sys, keyBits}
	if ctx, ok := r.ctxs[k]; ok {
		ctx.Costs.Reset()
		ctx.Checked.ResetStats()
		return ctx, nil
	}
	ctx, err := r.newContext(sys, keyBits, fmt.Sprintf("%s-%d", sys, keyBits))
	if err != nil {
		return nil, err
	}
	r.ctxs[k] = ctx
	return ctx, nil
}

// newContext builds an uncached HE context and attaches it to the shared
// observability bundle under label.
func (r *Runner) newContext(sys fl.System, keyBits int, label string) (*fl.Context, error) {
	p := fl.NewProfile(sys, keyBits, r.cfg.Parties)
	p.Seed = r.cfg.Seed
	ctx, err := fl.NewContext(p)
	if err != nil {
		return nil, fmt.Errorf("bench: context %s/%d: %w", sys, keyBits, err)
	}
	r.attachObs(ctx, label)
	return ctx, nil
}

// buildModel constructs a benchmark model by its paper name. ctx may be nil
// for the plaintext oracle.
func (r *Runner) buildModel(name string, ctx *fl.Context, ds *datasets.Dataset) (models.Model, error) {
	opts := models.DefaultOptions()
	opts.BatchSize = r.cfg.BatchSize
	opts.Seed = r.cfg.Seed
	opts.Parties = r.cfg.Parties // plaintext oracles mirror the topology
	switch name {
	case "Homo LR":
		return models.NewHomoLR(ctx, ds, opts)
	case "Hetero LR":
		return models.NewHeteroLR(ctx, ds, opts)
	case "Hetero SBT":
		return models.NewHeteroSBT(ctx, ds, opts)
	case "Hetero NN":
		return models.NewHeteroNN(ctx, ds, nnHidden, opts)
	default:
		return nil, fmt.Errorf("bench: unknown model %q", name)
	}
}

// EpochResult is one measured cell.
type EpochResult struct {
	Dataset     string
	Model       string
	System      fl.System
	KeyBits     int
	Costs       fl.CostSnapshot
	Utilization float64
	Loss        float64
	// Curve holds one point an epoch: the cumulative modelled time and the
	// loss after it.
	Curve []Point
}

// Point is one epoch of a convergence curve.
type Point struct {
	Sim  time.Duration
	Loss float64
}

// runEpochs returns the cell of `epochs` epochs of one model/system/dataset,
// training it on the first call and reading the memo after: a cell is one
// run however many experiments print it. The oracle system trains the
// plaintext baseline, with no context and zero costs.
func (r *Runner) runEpochs(modelName string, sys fl.System, keyBits int, spec datasets.Spec, epochs int) (EpochResult, error) {
	k := runKey{modelName, sys, keyBits, spec.Name, epochs}
	if res, ok := r.runs[k]; ok {
		return res, nil
	}
	ds, err := r.dataset(spec)
	if err != nil {
		return EpochResult{}, err
	}
	var ctx *fl.Context
	if sys != oracle {
		if ctx, err = r.context(sys, keyBits); err != nil {
			return EpochResult{}, err
		}
	}
	m, err := r.buildModel(modelName, ctx, ds)
	if err != nil {
		return EpochResult{}, err
	}
	defer m.Close()
	res := EpochResult{Dataset: spec.Name, Model: modelName, System: sys, KeyBits: keyBits}
	for e := 0; e < epochs; e++ {
		if res.Loss, err = m.TrainEpoch(); err != nil {
			return EpochResult{}, fmt.Errorf("bench: %s/%s/%s k=%d: %w", modelName, sys, spec.Name, keyBits, err)
		}
		if ctx != nil {
			res.Costs = ctx.Costs.Snapshot()
		}
		res.Curve = append(res.Curve, Point{res.Costs.TotalSim(), res.Loss})
	}
	if ctx != nil {
		res.Utilization = ctx.Utilization()
	}
	r.runs[k] = res
	return res, nil
}

// fmtDur prints a duration in seconds with adaptive precision, matching the
// paper's "seconds" columns.
func fmtDur(d time.Duration) string {
	s := d.Seconds()
	switch {
	case s >= 100:
		return fmt.Sprintf("%.1f", s)
	case s >= 1:
		return fmt.Sprintf("%.2f", s)
	default:
		return fmt.Sprintf("%.4f", s)
	}
}

// header prints an underlined experiment title.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n%s\n", title)
	for range title {
		fmt.Fprint(w, "=")
	}
	fmt.Fprintln(w)
}
