package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"flbooster/internal/datasets"
	"flbooster/internal/fl"
	"flbooster/internal/models"
)

// spec is one workload's fixed shape. Only the step count is tunable
// (-seconds, -steps); everything here is part of the workload's identity.
type spec struct {
	name, why string
	keyBits   int
	parties   int
	rBits     uint            // 0 keeps the profile's r+b = 32 setting
	cohort    fl.CohortPolicy // zero keeps the flat all-parties round
	// Round workloads: gradient dimension of a timed round and of the
	// warm-up round.
	dim, warmDim int
	// Epoch workloads (batch > 0): dataset shape, minibatch, protocol.
	data   datasets.Spec
	batch  int
	hetero bool
	// minSteps is the fewest timed steps a run takes, whatever -seconds says.
	minSteps int
}

func (s spec) epoch() bool { return s.batch > 0 }

// specs returns the four workloads, at the reference sizing or at the
// seconds-not-minutes sizing bench_test.go runs under tier-1.
func specs(smoke bool) []spec {
	all := []spec{
		{
			name:    "agg_packed_2048",
			why:     "paper's headline config: packed 2048-bit rounds, >=99% of host time in large HE batches, sim time bandwidth-bound",
			keyBits: 2048, parties: 4, dim: 2048, warmDim: 64, minSteps: 2,
		},
		{
			name:    "cohort_tree_128",
			why:     "opposite corner: tiny operands, so launches, allocation, framing, the aggregation tree and the round loop dominate; sim time latency-bound",
			keyBits: 128, parties: 2048, rBits: 16,
			cohort: fl.CohortPolicy{Size: 512, Fanout: 8, MaxInflight: 32},
			dim:    16, warmDim: 16, minSteps: p90MinSamples,
		},
		{
			name:    "epoch_homo_lr_2048",
			why:     "Table III cell: dataset, local gradients, many small secure-aggregation rounds, optimizer step; shows convergence regressions",
			keyBits: 2048, parties: 4,
			data: datasets.SyntheticSpec.Scaled(0.02), batch: 128, minSteps: 2,
		},
		{
			name:    "epoch_hetero_lr_1024",
			why:     "same HE layer used differently: unpacked per-sample residuals, short-exponent ciphertext-scalar products, ReduceSum, DecryptRaw",
			keyBits: 1024, parties: 4,
			data: datasets.SyntheticSpec.Scaled(0.001), batch: 32, hetero: true, minSteps: 3,
		},
	}
	if !smoke {
		return all
	}
	for i := range all {
		s := &all[i]
		if s.keyBits > 256 {
			s.keyBits = 256
		}
		s.minSteps = 2
		switch {
		case s.cohort.Enabled():
			s.parties = 64
			s.cohort = fl.CohortPolicy{Size: 16, Fanout: 4, MaxInflight: 8}
		case s.epoch():
			s.data = datasets.SyntheticSpec.Scaled(0.0005)
			s.batch = 16
		default:
			s.dim, s.warmDim = 64, 16
		}
	}
	return all
}

// gradients is the seeded input generator for round workloads: the sin-wave
// vectors of internal/bench/round.go with the phase taken from the seed. It
// fills dst when dst already has the shape, so the timed loop's allocation
// is the program's and not the generator's.
func gradients(dst [][]float64, seed uint64, round, parties, dim int) [][]float64 {
	if len(dst) != parties || len(dst[0]) != dim {
		flat := make([]float64, parties*dim)
		dst = make([][]float64, parties)
		for c := range dst {
			dst[c] = flat[c*dim : (c+1)*dim : (c+1)*dim]
		}
	}
	phase := float64(seed & 0xffff)
	for c, g := range dst {
		for i := range g {
			g[i] = 0.3 * math.Sin(phase+float64((round*parties+c)*dim+i+1))
		}
	}
	return dst
}

// instance is one workload set up and warmed: the context, the thing that
// steps, and how long the program's own set-up phases took.
type instance struct {
	spec spec
	seed uint64
	ctx  *fl.Context
	fed  *fl.Federation // round workloads
	// Epoch workloads train the encrypted model and the ctx == nil plaintext
	// oracle in lock-step.
	model, oracle models.Model
	next          int         // next round number fed to the gradient generator
	grads         [][]float64 // the generator's buffer, refilled every round

	setup     time.Duration // every phase below plus the warm-up step
	generate  time.Duration // datasets.Generate
	newCtx    time.Duration // fl.NewContext: key generation, device, packer
	lastRound fl.RoundReport
}

// stepOut is one timed step: its host wall time and, when it failed or its
// output was wrong, why. A failed step keeps its timing sample.
type stepOut struct {
	wall time.Duration
	err  error
	bias float64 // epoch workloads: Eq. 15 against the oracle after this epoch
}

// newInstance builds the workload from the seed and runs its warm-up step.
// Only the program's work is on the set-up clock; building and warming the
// plaintext oracle is the harness's and is left off it. tr may be nil.
func newInstance(s spec, seed uint64, tr *tracer) (*instance, error) {
	in := &instance{spec: s, seed: seed}
	top := tr.begin("setup", 0, -1)
	defer tr.end(top)
	timed := func(name string, dst *time.Duration, fn func() error) error {
		id := tr.begin(name, top, -1)
		start := time.Now()
		err := fn()
		d := time.Since(start)
		tr.end(id)
		in.setup += d
		if dst != nil {
			*dst = d
		}
		return err
	}

	var ds *datasets.Dataset
	if s.epoch() {
		if err := timed("datasets.generate", &in.generate, func() (err error) {
			ds, err = datasets.Generate(s.data, seed)
			return err
		}); err != nil {
			return nil, err
		}
	}
	p := fl.NewProfile(fl.SystemFLBooster, s.keyBits, s.parties)
	p.Seed = seed
	if s.rBits > 0 {
		p.RBits = s.rBits
	}
	p.Cohort = s.cohort
	if err := timed("fl.new_context", &in.newCtx, func() (err error) {
		in.ctx, err = fl.NewContext(p)
		return err
	}); err != nil {
		return nil, err
	}
	if !s.epoch() {
		in.fed = fl.NewFederation(in.ctx)
		var out stepOut
		if err := timed("warmup", nil, func() error {
			out = in.round(s.warmDim)
			return out.err
		}); err != nil {
			in.close()
			return nil, fmt.Errorf("warm-up round: %w", err)
		}
		return in, nil
	}

	opts := models.DefaultOptions()
	opts.BatchSize = s.batch
	opts.Seed = seed
	if err := timed("models.new", nil, func() (err error) {
		in.model, err = newModel(s, in.ctx, ds, opts)
		return err
	}); err != nil {
		in.close()
		return nil, err
	}
	opts.Parties = s.parties
	var err error
	if in.oracle, err = newModel(s, nil, ds, opts); err != nil {
		in.close()
		return nil, err
	}
	if err := timed("warmup", nil, func() error {
		_, err := in.model.TrainEpoch()
		return err
	}); err != nil {
		in.close()
		return nil, fmt.Errorf("warm-up epoch: %w", err)
	}
	if _, err := in.oracle.TrainEpoch(); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func newModel(s spec, ctx *fl.Context, ds *datasets.Dataset, opts models.Options) (models.Model, error) {
	if s.hetero {
		return models.NewHeteroLR(ctx, ds, opts)
	}
	return models.NewHomoLR(ctx, ds, opts)
}

// step runs one timed step and checks its output.
func (in *instance) step() stepOut {
	if !in.spec.epoch() {
		return in.round(in.spec.dim)
	}
	start := time.Now()
	loss, err := in.model.TrainEpoch()
	out := stepOut{wall: time.Since(start), err: err}
	if err != nil {
		return out
	}
	want, err := in.oracle.TrainEpoch()
	if err != nil {
		out.err = fmt.Errorf("oracle epoch: %w", err)
		return out
	}
	out.bias = models.ConvergenceBias(want, loss)
	if math.IsNaN(loss) || math.IsNaN(out.bias) || out.bias > lossBiasLimit {
		out.err = fmt.Errorf("loss %g against oracle %g: bias %g above %g", loss, want, out.bias, lossBiasLimit)
	}
	return out
}

// round runs one secure-aggregation round on fresh seeded gradients and
// checks the decrypted aggregate against the plaintext sum.
func (in *instance) round(dim int) stepOut {
	in.grads = gradients(in.grads, in.seed, in.next, in.spec.parties, dim)
	in.next++
	start := time.Now()
	sum, rep, err := in.fed.SecureAggregateReport(in.grads)
	out := stepOut{wall: time.Since(start), err: err}
	if err != nil {
		return out
	}
	in.lastRound = rep
	out.err = checkAggregate(sum, in.grads, rep, in.ctx.Quant.Step())
	return out
}

// checkAggregate is the round oracle: the aggregate must equal the plaintext
// sum over the clients the round included, times the round's scale, to
// within the quantizer's worst case of half a step per contribution.
func checkAggregate(got []float64, grads [][]float64, rep fl.RoundReport, quantStep float64) error {
	if len(rep.Included) == 0 {
		return fmt.Errorf("round %d included no clients", rep.Round)
	}
	want := make([]float64, len(got))
	for _, name := range rep.Included {
		i, err := fl.ClientIndex(name)
		if err != nil || i >= len(grads) {
			return fmt.Errorf("round %d included unknown client %q", rep.Round, name)
		}
		if len(grads[i]) != len(got) {
			return fmt.Errorf("round %d returned %d values for %d-value gradients", rep.Round, len(got), len(grads[i]))
		}
		for j, v := range grads[i] {
			want[j] += v
		}
	}
	tol := float64(len(rep.Included)) * rep.Scale * quantStep / 2
	for j := range got {
		if d := math.Abs(got[j] - want[j]*rep.Scale); !(d <= tol) {
			return fmt.Errorf("round %d value %d: got %g, plaintext sum %g, off by %g > %g",
				rep.Round, j, got[j], want[j]*rep.Scale, d, tol)
		}
	}
	return nil
}

// width is B: the ciphertexts one party produces per step's HE batch, the
// vector width every probe runs at. values is the plaintext values behind it.
func (in *instance) width() (cts, values int) {
	switch s := in.spec; {
	case !s.epoch():
		return in.ctx.PlaintextCount(s.dim), s.dim
	case s.hetero:
		// The per-sample residual flow: one ciphertext per minibatch row.
		return s.batch, s.batch
	default:
		n := s.data.Features + 1 // weights plus the bias gradient
		return in.ctx.PlaintextCount(n), n
	}
}

func (in *instance) close() {
	if in.fed != nil {
		in.fed.Close()
	}
	if c, ok := in.model.(io.Closer); ok {
		c.Close()
	}
}
