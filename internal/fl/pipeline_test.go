package fl

import (
	"testing"
	"time"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

func testGrads(parties, count int) [][]float64 {
	grads := make([][]float64, parties)
	for i := range grads {
		grads[i] = make([]float64, count)
		for j := range grads[i] {
			grads[i][j] = 0.001 * float64((i*31+j*7)%997) * float64(1-2*(j%2))
		}
	}
	return grads
}

// runRound executes `rounds` SecureAggregate rounds over a fresh context and
// returns the final aggregate, the context, and the report.
func runRound(t *testing.T, p Profile, grads [][]float64, rounds int) ([]float64, *Context, RoundReport) {
	t.Helper()
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	var agg []float64
	var rep RoundReport
	for r := 0; r < rounds; r++ {
		if agg, rep, err = fed.SecureAggregateReport(grads); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	return agg, ctx, rep
}

func sameFloatsBitExact(t *testing.T, label string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: aggregate[%d] = %v pipelined, %v sequential (must be bit-exact)", label, i, a[i], b[i])
		}
	}
}

// TestChunkedRoundBitExact: for every system profile, a round run through
// the chunked pipeline produces the exact aggregate of the sequential path,
// and records pipeline accounting that never exceeds the sequential sum.
func TestChunkedRoundBitExact(t *testing.T) {
	grads := testGrads(4, 40)
	for _, sys := range []System{SystemFLBooster, SystemHAFLO, SystemFATE} {
		seqAgg, seqCtx, _ := runRound(t, testProfile(sys), grads, 2)
		for _, chunk := range []int{1, 3, 8, 64} {
			p := testProfile(sys)
			p.Chunk = chunk
			agg, ctx, rep := runRound(t, p, grads, 2)
			sameFloatsBitExact(t, string(sys), agg, seqAgg)
			if len(rep.Included) != 4 {
				t.Fatalf("%s chunk=%d: %d clients included", sys, chunk, len(rep.Included))
			}
			cs := ctx.Costs.Snapshot()
			if cs.PipeChunks == 0 {
				t.Fatalf("%s chunk=%d: no pipeline chunks accounted", sys, chunk)
			}
			if cs.PipeSim <= 0 || cs.PipeSim > cs.PipeSeqSim {
				t.Fatalf("%s chunk=%d: overlapped %v outside (0, %v]", sys, chunk, cs.PipeSim, cs.PipeSeqSim)
			}
			if ov := cs.TotalSimOverlapped(); ov > cs.TotalSim() || ov <= 0 {
				t.Fatalf("%s chunk=%d: TotalSimOverlapped %v vs TotalSim %v", sys, chunk, ov, cs.TotalSim())
			}
			// The chunked path must not change what the cost model counts.
			seqCs := seqCtx.Costs.Snapshot()
			if cs.HEOps != seqCs.HEOps || cs.Ciphertexts != seqCs.Ciphertexts {
				t.Fatalf("%s chunk=%d: HE op counts diverge (%d/%d vs %d/%d)",
					sys, chunk, cs.HEOps, cs.Ciphertexts, seqCs.HEOps, seqCs.Ciphertexts)
			}
		}
	}
}

// TestChunkedRoundSequentialNoPipeline: chunk 0 keeps the legacy path with
// zero pipeline accounting.
func TestChunkedRoundSequentialNoPipeline(t *testing.T) {
	_, ctx, _ := runRound(t, testProfile(SystemFLBooster), testGrads(4, 16), 1)
	cs := ctx.Costs.Snapshot()
	if cs.PipeChunks != 0 || cs.PipeSim != 0 || cs.PipeSeqSim != 0 {
		t.Fatalf("sequential round recorded pipeline accounting: %+v", cs)
	}
	if cs.TotalSimOverlapped() != cs.TotalSim() {
		t.Fatalf("overlapped total %v != sequential %v with no pipeline", cs.TotalSimOverlapped(), cs.TotalSim())
	}
}

// TestChunkedRoundSurvivesDeviceDeath: the device dies mid-pipeline; chunk
// retries and the CPU failover run per chunk, and the chunked aggregate is
// still bit-exact with a healthy sequential run.
func TestChunkedRoundSurvivesDeviceDeath(t *testing.T) {
	grads := testGrads(4, 24)
	clean, _, _ := runRound(t, testProfile(SystemFLBooster), grads, 2)

	p := testProfile(SystemFLBooster)
	p.Chunk = 2
	p.Faults = FaultPolicy{Inject: gpu.FaultConfig{Seed: 1, KillAtLaunch: 8}}
	agg, ctx, _ := runRound(t, p, grads, 2)
	sameFloatsBitExact(t, "device-death", agg, clean)
	rep := ctx.FaultReport()
	if rep.Health != gpu.DeviceFailed || !rep.Checked.FellBack {
		t.Fatalf("expected mid-pipeline device death and failover, got %+v", rep)
	}
	if cs := ctx.Costs.Snapshot(); cs.PipeSim <= 0 || cs.PipeSim > cs.PipeSeqSim {
		t.Fatalf("pipeline accounting broken across failover: %+v", cs)
	}
}

// TestChunkedRoundSurvivesCorruptionRetries: a corrupting device with full
// verification retries individual chunks without changing the aggregate.
func TestChunkedRoundSurvivesCorruptionRetries(t *testing.T) {
	grads := testGrads(4, 24)
	clean, _, _ := runRound(t, testProfile(SystemFLBooster), grads, 1)

	p := testProfile(SystemFLBooster)
	p.Chunk = 2
	p.Faults = FaultPolicy{
		Inject: gpu.FaultConfig{Seed: 7, CorruptProb: 0.1},
		Check:  ghe.CheckedConfig{MaxRetries: 8, VerifyFraction: 1},
	}
	agg, ctx, _ := runRound(t, p, grads, 1)
	sameFloatsBitExact(t, "corruption-retry", agg, clean)
	rep := ctx.FaultReport()
	if rep.Checked.VerifyFailures == 0 {
		t.Fatalf("expected verification to catch injected corruption, got %+v", rep.Checked)
	}
}

// TestEncryptGradientsStreamMatchesWholeBatch: the streamed ciphertexts are
// the whole-batch ciphertexts for GPU and CPU backends alike.
func TestEncryptGradientsStreamMatchesWholeBatch(t *testing.T) {
	grads := testGrads(1, 37)[0]
	for _, sys := range []System{SystemFLBooster, SystemFATE} {
		seqCtx, err := NewContext(testProfile(sys))
		if err != nil {
			t.Fatal(err)
		}
		want, err := seqCtx.EncryptGradients(grads)
		if err != nil {
			t.Fatal(err)
		}
		p := testProfile(sys)
		p.Chunk = 3
		ctx, err := NewContext(p)
		if err != nil {
			t.Fatal(err)
		}
		var got []paillier.Ciphertext
		var indices []int
		var simTotal time.Duration
		err = ctx.EncryptGradientsStreamAs(&ctx.Key.PublicKey, grads, func(index int, cts []paillier.Ciphertext, heSim time.Duration) error {
			indices = append(indices, index)
			got = append(got, cts...)
			simTotal += heSim
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d streamed ciphertexts, want %d", sys, len(got), len(want))
		}
		for i := range want {
			if mpint.Cmp(got[i].C, want[i].C) != 0 {
				t.Fatalf("%s: ciphertext %d differs between streamed and whole-batch paths", sys, i)
			}
		}
		for i, idx := range indices {
			if idx != i {
				t.Fatalf("%s: chunk indices out of order: %v", sys, indices)
			}
		}
		if simTotal <= 0 {
			t.Fatalf("%s: stream reported no HE time", sys)
		}
	}
}

// TestEncryptGradientsStreamEmptyVector: an empty vector emits exactly one
// empty chunk so the upload protocol still sees the client.
func TestEncryptGradientsStreamEmptyVector(t *testing.T) {
	p := testProfile(SystemFATE)
	p.Chunk = 4
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	err = ctx.EncryptGradientsStreamAs(&ctx.Key.PublicKey, nil, func(index int, cts []paillier.Ciphertext, _ time.Duration) error {
		calls++
		if index != 0 || len(cts) != 0 {
			t.Fatalf("empty vector emitted chunk %d with %d ciphertexts", index, len(cts))
		}
		return nil
	})
	if err != nil || calls != 1 {
		t.Fatalf("empty vector: calls=%d err=%v", calls, err)
	}
}

// TestProfileRejectsNegativeChunk: validation catches a negative chunk size.
func TestProfileRejectsNegativeChunk(t *testing.T) {
	p := testProfile(SystemFLBooster)
	p.Chunk = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative chunk size accepted")
	}
}
