// Package-level benchmarks: one testing.B target per table and figure of
// the paper's evaluation, each delegating to the experiment harness at a
// micro scale so `go test -bench .` completes quickly. Use cmd/flbench for
// full experiment runs and EXPERIMENTS.md for recorded results.
package flbooster

import (
	"io"
	"testing"

	"flbooster/internal/bench"
)

// microConfig shrinks every experiment to benchmark-loop size.
func microConfig() bench.Config {
	cfg := bench.Quick()
	cfg.Scale = 0.0002
	cfg.KeyBits = []int{128}
	cfg.Epochs = 2
	cfg.BatchSize = 32
	return cfg
}

// benchExperiment times fn on a fresh Runner each iteration: a Runner
// memoises its runs, so a reused one would time map reads after the first.
func benchExperiment(b *testing.B, fn func(*bench.Runner, io.Writer) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := bench.NewRunner(microConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := fn(r, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2Stats(b *testing.B) {
	benchExperiment(b, (*bench.Runner).Table2)
}

func BenchmarkFig1EpochBreakdown(b *testing.B) {
	benchExperiment(b, (*bench.Runner).Fig1)
}

func BenchmarkTable3EpochTime(b *testing.B) {
	benchExperiment(b, (*bench.Runner).Table3)
}

func BenchmarkTable4Throughput(b *testing.B) {
	benchExperiment(b, (*bench.Runner).Table4)
}

func BenchmarkFig6Utilization(b *testing.B) {
	benchExperiment(b, (*bench.Runner).Fig6)
}

func BenchmarkTable5Ablation(b *testing.B) {
	benchExperiment(b, (*bench.Runner).Table5)
}

func BenchmarkFig7Compression(b *testing.B) {
	benchExperiment(b, (*bench.Runner).Fig7)
}

func BenchmarkTable6Components(b *testing.B) {
	benchExperiment(b, (*bench.Runner).Table6)
}

func BenchmarkFig8Convergence(b *testing.B) {
	benchExperiment(b, (*bench.Runner).Fig8)
}

func BenchmarkTable7Bias(b *testing.B) {
	benchExperiment(b, (*bench.Runner).Table7)
}
