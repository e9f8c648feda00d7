package models

import (
	"errors"
	"math"
	"slices"
	"testing"

	"flbooster/internal/batch"
	"flbooster/internal/datasets"
	"flbooster/internal/fl"
	"flbooster/internal/gpu"
	"flbooster/internal/quant"
)

// testData builds a small sparse dataset with learnable structure.
func testData(t testing.TB, n, features int) *datasets.Dataset {
	t.Helper()
	spec := datasets.Spec{Name: "unit", Instances: n, Features: features, AvgActive: features / 3}
	ds, err := datasets.Generate(spec, 99)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// denseData builds a small dense dataset (the Synthetic shape).
func denseData(t testing.TB, n, features int) *datasets.Dataset {
	t.Helper()
	spec := datasets.Spec{Name: "dense-unit", Instances: n, Features: features, AvgActive: features, Dense: true}
	ds, err := datasets.Generate(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testCtx(t testing.TB, sys fl.System) *fl.Context {
	t.Helper()
	return testCtxKey(t, sys, 128)
}

// testCtxKey is testCtx at a chosen key size: 256 bits and up give the
// vertical return path more than one slot.
func testCtxKey(t testing.TB, sys fl.System, keyBits int) *fl.Context {
	t.Helper()
	p := fl.NewProfile(sys, keyBits, 4)
	p.Device = gpu.SmallTestDevice()
	p.RBits = 14
	ctx, err := fl.NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func testOpts() Options {
	o := DefaultOptions()
	o.BatchSize = 32
	o.LearningRate = 0.1
	o.L2 = 0.001
	o.Parties = 4 // oracle runs mirror the encrypted topology
	return o
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{LearningRate: 0, BatchSize: 1},
		{LearningRate: 1, L2: -1, BatchSize: 1},
		{LearningRate: 1, BatchSize: 0},
	}
	for i, o := range bad {
		if err := o.validate(); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
	if err := DefaultOptions().validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConvergenceBias(t *testing.T) {
	if got := ConvergenceBias(0.5, 0.51); got < 0.019 || got > 0.021 {
		t.Fatalf("ConvergenceBias = %v", got)
	}
	if ConvergenceBias(0.5, 0.49) != ConvergenceBias(0.5, 0.51) {
		t.Fatal("bias should be symmetric")
	}
	if ConvergenceBias(0, 1) != 0 {
		t.Fatal("zero baseline convention")
	}
}

// --- Homo LR ---------------------------------------------------------------

func TestHomoLROracleLearns(t *testing.T) {
	ds := testData(t, 120, 24)
	m, err := NewHomoLR(nil, ds, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	initial := m.Loss()
	var final float64
	for e := 0; e < 5; e++ {
		final, err = m.TrainEpoch()
		if err != nil {
			t.Fatal(err)
		}
	}
	if final >= initial {
		t.Fatalf("oracle loss did not improve: %v -> %v", initial, final)
	}
}

func TestHomoLREncryptedMatchesOracle(t *testing.T) {
	ds := testData(t, 120, 24)
	oracle, err := NewHomoLR(nil, ds, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Oracle must use the same party count for identical averaging.
	ctx := testCtx(t, fl.SystemFLBooster)
	enc, err := NewHomoLR(ctx, ds, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()
	var lossO, lossE float64
	for e := 0; e < 3; e++ {
		if lossO, err = oracle.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
		if lossE, err = enc.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	// The paper's Table VII: convergence bias well under 5%.
	if bias := ConvergenceBias(lossO, lossE); bias > 0.05 {
		t.Fatalf("Homo LR convergence bias %v exceeds 5%% (oracle %v, enc %v)", bias, lossO, lossE)
	}
	c := ctx.Costs.Snapshot()
	if c.HEOps == 0 || c.CommBytes == 0 || c.OtherWall == 0 {
		t.Fatalf("cost anatomy incomplete: %+v", c)
	}
}

func TestHomoLRRejectsBadOptions(t *testing.T) {
	ds := testData(t, 20, 8)
	if _, err := NewHomoLR(nil, ds, Options{}); err == nil {
		t.Fatal("zero options should fail")
	}
}

// --- Hetero LR --------------------------------------------------------------

func TestHeteroLROracleLearns(t *testing.T) {
	ds := testData(t, 120, 24)
	m, err := NewHeteroLR(nil, ds, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	initial := m.Loss()
	var final float64
	for e := 0; e < 5; e++ {
		if final, err = m.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if final >= initial {
		t.Fatalf("oracle loss did not improve: %v -> %v", initial, final)
	}
}

func TestHeteroLREncryptedMatchesOracle(t *testing.T) {
	ds := testData(t, 96, 20)
	opts := testOpts()
	ctx := testCtx(t, fl.SystemFLBooster)

	oracle, err := NewHeteroLR(nil, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle with one "party" still trains the same joint model because the
	// vertical split is a pure reindexing; run it with the same batches.
	enc, err := NewHeteroLR(ctx, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()

	var lossO, lossE float64
	for e := 0; e < 2; e++ {
		if lossO, err = oracle.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
		if lossE, err = enc.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if bias := ConvergenceBias(lossO, lossE); bias > 0.08 {
		t.Fatalf("Hetero LR bias %v too large (oracle %v, enc %v)", bias, lossO, lossE)
	}
	c := ctx.Costs.Snapshot()
	if c.HEOps == 0 || c.CommBytes == 0 {
		t.Fatalf("cost anatomy incomplete: %+v", c)
	}
}

func TestHeteroLRDenseFeatures(t *testing.T) {
	// Dense data exercises the negative terms of the signed sums.
	ds := denseData(t, 48, 8)
	ctx := testCtx(t, fl.SystemFLBooster)
	opts := testOpts()
	opts.BatchSize = 16
	enc, err := NewHeteroLR(ctx, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()
	oracle, err := NewHeteroLR(nil, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	lossE, err := enc.TrainEpoch()
	if err != nil {
		t.Fatal(err)
	}
	lossO, err := oracle.TrainEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if bias := ConvergenceBias(lossO, lossE); bias > 0.1 {
		t.Fatalf("dense Hetero LR bias %v (oracle %v, enc %v)", bias, lossO, lossE)
	}
}

// --- Hetero SBT --------------------------------------------------------------

func TestHeteroSBTOracleLearns(t *testing.T) {
	ds := testData(t, 150, 24)
	m, err := NewHeteroSBT(nil, ds, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	initial := m.Loss()
	var final float64
	for e := 0; e < 5; e++ {
		if final, err = m.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if final >= initial {
		t.Fatalf("boosting did not improve loss: %v -> %v", initial, final)
	}
	if len(m.Trees) != 5 {
		t.Fatalf("expected 5 trees, got %d", len(m.Trees))
	}
}

func TestHeteroSBTEncryptedMatchesOracle(t *testing.T) {
	for _, sys := range []fl.System{fl.SystemFLBooster, fl.SystemNoBC} {
		sys := sys
		t.Run(string(sys), func(t *testing.T) {
			ds := testData(t, 100, 16)
			ctx := testCtx(t, sys)
			enc, err := NewHeteroSBT(ctx, ds, testOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer enc.Close()
			oracle, err := NewHeteroSBT(nil, ds, testOpts())
			if err != nil {
				t.Fatal(err)
			}
			var lossE, lossO float64
			for e := 0; e < 2; e++ {
				if lossE, err = enc.TrainEpoch(); err != nil {
					t.Fatal(err)
				}
				if lossO, err = oracle.TrainEpoch(); err != nil {
					t.Fatal(err)
				}
			}
			// Histogram quantization may shift split choices slightly; the
			// ensembles must stay close.
			if bias := ConvergenceBias(lossO, lossE); bias > 0.1 {
				t.Fatalf("SBT bias %v (oracle %v, enc %v)", bias, lossO, lossE)
			}
			c := ctx.Costs.Snapshot()
			if c.HEOps == 0 || c.CommBytes == 0 {
				t.Fatalf("cost anatomy incomplete: %+v", c)
			}
		})
	}
}

func TestSBTPackingHalvesCiphertexts(t *testing.T) {
	ds := testData(t, 80, 16)
	run := func(sys fl.System) int64 {
		ctx := testCtx(t, sys)
		m, err := NewHeteroSBT(ctx, ds, testOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if _, err := m.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
		return ctx.Costs.Snapshot().Ciphertexts
	}
	packed := run(fl.SystemFLBooster)
	unpacked := run(fl.SystemNoBC)
	if packed*2 > unpacked+2 {
		t.Fatalf("(g,h) packing should halve fresh ciphertexts: %d vs %d", packed, unpacked)
	}
}

// TestSBTEncodingCarrySafety sweeps ghEncoding over sample counts at 2^k − 1,
// 2^k and 2^k + 1 up to 2^16, r from 2 to 20 and batch compression on and off:
// the pair of two n-sample sums at their largest, n·(2^r − 1) each, packs
// below 2^64, splits back exactly and dequantizes to n·α, and its all-zero
// twin to −n·α. r is the widest that fits, and n ≤ 1,024 keeps the one asked.
func TestSBTEncodingCarrySafety(t *testing.T) {
	cases := 0
	for k := 1; k <= 16; k++ {
		for _, n := range []int{1<<k - 1, 1 << k, 1<<k + 1} {
			for r := uint(2); r <= 20; r++ {
				for _, packed := range []bool{false, true} {
					q, l, err := ghEncoding(n, r, packed)
					if err != nil {
						t.Fatalf("n %d, r %d, packed %t: %v", n, r, packed, err)
					}
					got := q.RBits()
					if got > r || (got < r && 2*(q.SlotBits()+1) <= 64) || (n <= 1024 && got != r) {
						t.Fatalf("n %d, r %d, packed %t: r is %d in %d-bit slots", n, r, packed, got, q.SlotBits())
					}
					plaintexts := 2
					if packed {
						plaintexts = 1
					}
					for _, sum := range []uint64{0, uint64(n) * q.Quantize(1)} {
						pts := l.Pack(nil, 2, func(int) uint64 { return sum })
						if len(pts) != plaintexts {
							t.Fatalf("n %d, r %d, packed %t: %d plaintexts a pair", n, r, packed, len(pts))
						}
						for _, pt := range pts {
							if pt.BitLen() > 64 {
								t.Fatalf("n %d, r %d, packed %t: a %d-bit pair", n, r, packed, pt.BitLen())
							}
						}
						vals, err := batch.Split(l, pts, 2, batch.Raw)
						if err != nil || vals[0] != sum || vals[1] != sum {
							t.Fatalf("n %d, r %d, packed %t: split %v, %v, want %d twice", n, r, packed, vals, err, sum)
						}
						want := float64(n)
						if sum == 0 {
							want = -want
						}
						if v, err := q.DequantizeSum(sum, n); err != nil || v != want {
							t.Fatalf("n %d, r %d, packed %t: %d dequantizes to %v, %v, want %v", n, r, packed, sum, v, err, want)
						}
					}
					cases++
				}
			}
		}
	}
	t.Logf("%d encodings", cases)
}

// TestSBTCorruptHistogramSlotRejects feeds a host (g, h) ciphertexts whose h
// slot is 2^r, one past the quantizer's range, and g 0: a bin of cnt samples
// then sums to a word below its pair bound, so the return path opens it, but
// its h slot is cnt·2^r > cnt·(2^r − 1), which must reject with
// quant.ErrOverflow rather than decode to a wrong H.
func TestSBTCorruptHistogramSlotRejects(t *testing.T) {
	ds := denseData(t, 64, 8)
	ctx := testCtxKey(t, fl.SystemFLBooster, returnKeyBits)
	m, err := NewHeteroSBT(ctx, ds, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	n := ds.Len()
	over := m.quant.Quantize(1) + 1
	pts := m.layout.Pack(nil, 2*n, func(i int) uint64 { return over * uint64(1-i%2) })
	cts, err := m.holder.EncryptNats(pts, int64(2*n))
	if err != nil {
		t.Fatal(err)
	}
	g, h := m.gradients()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	gTot, hTot := sumGH(all, g, h)
	_, err = m.partyBestSplit(1, all, g, h, cts, gTot, hTot)
	if !errors.Is(err, quant.ErrOverflow) || errors.Is(err, fl.ErrSlotCorrupt) {
		t.Fatalf("a corrupt h slot: %v, want quant.ErrOverflow from the guest's decode", err)
	}
}

// --- Hetero NN --------------------------------------------------------------

func TestHeteroNNOracleLearns(t *testing.T) {
	ds := testData(t, 120, 20)
	opts := testOpts()
	m, err := NewHeteroNN(nil, ds, 6, opts)
	if err != nil {
		t.Fatal(err)
	}
	initial := m.Loss()
	var final float64
	for e := 0; e < 6; e++ {
		if final, err = m.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if final >= initial {
		t.Fatalf("NN oracle loss did not improve: %v -> %v", initial, final)
	}
}

func TestHeteroNNEncryptedMatchesOracle(t *testing.T) {
	ds := testData(t, 64, 16)
	opts := testOpts()
	opts.BatchSize = 32
	ctx := testCtx(t, fl.SystemFLBooster)
	enc, err := NewHeteroNN(ctx, ds, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()
	oracle, err := NewHeteroNN(nil, ds, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	var lossE, lossO float64
	for e := 0; e < 2; e++ {
		if lossE, err = enc.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
		if lossO, err = oracle.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	if bias := ConvergenceBias(lossO, lossE); bias > 0.1 {
		t.Fatalf("NN bias %v (oracle %v, enc %v)", bias, lossO, lossE)
	}
	c := ctx.Costs.Snapshot()
	if c.HEOps == 0 || c.CommBytes == 0 {
		t.Fatalf("cost anatomy incomplete: %+v", c)
	}
}

// TestHeteroNNBlankHostSteps: a host whose minibatch holds no non-zero
// feature has no weighted sum to open, yet it still takes its optimizer step
// (L2 and Adam over a zero gradient), as the plaintext oracle's host does —
// its encrypted tower stays bit-identical to the oracle's. Skipping the step
// left the weights at their initial values.
func TestHeteroNNBlankHostSteps(t *testing.T) {
	ds := testData(t, 64, 16)
	for i, ex := range ds.Examples {
		k := 0
		for k < len(ex.Features.Idx) && ex.Features.Idx[k] < 8 { // party 1 holds features 8–15
			k++
		}
		ds.Examples[i].Features = datasets.SparseVec{Idx: ex.Features.Idx[:k], Val: ex.Features.Val[:k]}
	}
	opts := testOpts()
	opts.Parties = 2
	p := fl.NewProfile(fl.SystemFLBooster, 128, 2)
	p.Device = gpu.SmallTestDevice()
	p.RBits = 14
	ctx, err := fl.NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewHeteroNN(ctx, ds, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer enc.Close()
	oracle, err := NewHeteroNN(nil, ds, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	initial := slices.Clone(enc.W[1])
	if _, err := enc.TrainEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := oracle.TrainEpoch(); err != nil {
		t.Fatal(err)
	}
	for i, w := range enc.W[1] {
		if math.Float64bits(w) != math.Float64bits(oracle.W[1][i]) {
			t.Fatalf("host W[1][%d] = %v encrypted (initially %v), %v in the oracle", i, w, initial[i], oracle.W[1][i])
		}
	}
}

func TestHeteroNNValidation(t *testing.T) {
	ds := testData(t, 20, 8)
	if _, err := NewHeteroNN(nil, ds, 0, testOpts()); err == nil {
		t.Fatal("zero hidden width should fail")
	}
	if _, err := NewHeteroNN(nil, ds, 4, Options{}); err == nil {
		t.Fatal("bad options should fail")
	}
}

func TestAccuracyHelper(t *testing.T) {
	ds := testData(t, 100, 16)
	w := make([]float64, ds.NumFeatures)
	acc := Accuracy(w, 0, ds)
	if acc < 0 || acc > 1 {
		t.Fatalf("accuracy out of range: %v", acc)
	}
	// A trained model stays in range and does not collapse to the
	// anti-majority class (accuracy itself may wiggle on tiny noisy data).
	m, _ := NewHomoLR(nil, ds, testOpts())
	for e := 0; e < 5; e++ {
		if _, err := m.TrainEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	trained := Accuracy(m.Weights, m.Bias, ds)
	if trained < 0.35 || trained > 1 {
		t.Fatalf("trained accuracy degenerate: %v (baseline %v)", trained, acc)
	}
}
