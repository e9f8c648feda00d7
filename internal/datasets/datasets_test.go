package datasets

import (
	"math"
	"testing"
	"time"
)

func TestSpecsMatchTableII(t *testing.T) {
	if RCV1Spec.Instances != 677_399 || RCV1Spec.Features != 47_236 {
		t.Error("RCV1 spec drifted from Table II")
	}
	if AvazuSpec.Instances != 1_719_304 || AvazuSpec.Features != 1_000_000 {
		t.Error("Avazu spec drifted from Table II")
	}
	if SyntheticSpec.Instances != 100_000 || SyntheticSpec.Features != 10_000 || !SyntheticSpec.Dense {
		t.Error("Synthetic spec drifted from Table II")
	}
	if len(AllSpecs()) != 3 {
		t.Error("AllSpecs should list the three evaluation datasets")
	}
}

func TestScaled(t *testing.T) {
	s := RCV1Spec.Scaled(0.01)
	if s.Instances != 6773 || s.Features != 472 {
		t.Errorf("Scaled(0.01) = %d × %d", s.Instances, s.Features)
	}
	if s.AvgActive > s.Features {
		t.Error("AvgActive must not exceed feature count")
	}
	// Degenerate scales clamp to identity.
	if RCV1Spec.Scaled(0).Instances != RCV1Spec.Instances {
		t.Error("scale 0 should fall back to full size")
	}
	if RCV1Spec.Scaled(2).Instances != RCV1Spec.Instances {
		t.Error("scale > 1 should fall back to full size")
	}
	d := SyntheticSpec.Scaled(0.01)
	if d.AvgActive != d.Features {
		t.Error("dense spec must stay dense after scaling")
	}
}

func TestGenerateSparseShape(t *testing.T) {
	spec := RCV1Spec.Scaled(0.002)
	ds, err := Generate(spec, 42)
	if err != nil {
		t.Fatal(err)
	}
	st := ds.Stats()
	if st.Instances != spec.Instances || st.Features != spec.Features {
		t.Fatalf("shape %d × %d, want %d × %d", st.Instances, st.Features, spec.Instances, spec.Features)
	}
	if st.AvgNNZ < float64(spec.AvgActive)/3 || st.AvgNNZ > float64(spec.AvgActive)*3 {
		t.Fatalf("avg active %v far from spec %d", st.AvgNNZ, spec.AvgActive)
	}
	if st.Positives < 0.05 || st.Positives > 0.95 {
		t.Fatalf("label balance degenerate: %v", st.Positives)
	}
	for i, ex := range ds.Examples {
		for j := 1; j < len(ex.Features.Idx); j++ {
			if ex.Features.Idx[j] <= ex.Features.Idx[j-1] {
				t.Fatalf("example %d has unsorted or duplicate indices", i)
			}
		}
		if int(ex.Features.Idx[len(ex.Features.Idx)-1]) >= spec.Features {
			t.Fatalf("example %d has out-of-range index", i)
		}
	}
}

func TestGenerateDenseShape(t *testing.T) {
	spec := SyntheticSpec.Scaled(0.002)
	ds, err := Generate(spec, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i, ex := range ds.Examples {
		if ex.Features.NNZ() != spec.Features {
			t.Fatalf("dense example %d has %d features, want %d", i, ex.Features.NNZ(), spec.Features)
		}
	}
	st := ds.Stats()
	if st.Positives < 0.2 || st.Positives > 0.8 {
		t.Fatalf("dense label balance degenerate: %v", st.Positives)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := AvazuSpec.Scaled(0.0005)
	a, _ := Generate(spec, 9)
	b, _ := Generate(spec, 9)
	if a.Len() != b.Len() {
		t.Fatal("nondeterministic length")
	}
	for i := range a.Examples {
		ea, eb := a.Examples[i], b.Examples[i]
		if ea.Label != eb.Label || ea.Features.NNZ() != eb.Features.NNZ() {
			t.Fatalf("example %d differs between equal-seed runs", i)
		}
	}
	c, _ := Generate(spec, 10)
	same := true
	for i := range a.Examples {
		if a.Examples[i].Label != c.Examples[i].Label {
			same = false
			break
		}
	}
	if same && a.Len() > 50 {
		t.Fatal("different seeds produced identical labels")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Spec{Name: "bad"}, 1); err == nil {
		t.Fatal("zero-dimension spec should fail")
	}
}

func TestDotAndAddScaled(t *testing.T) {
	v := SparseVec{Idx: []int32{1, 3, 4}, Val: []float64{2, -1, 0.5}}
	w := []float64{10, 20, 30, 40, 50}
	if got := v.Dot(w); got != 2*20-40+0.5*50 {
		t.Fatalf("Dot = %v", got)
	}
	dst := make([]float64, 5)
	v.AddScaledInto(dst, 2)
	want := []float64{0, 4, 0, -2, 1}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("AddScaledInto[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestPartitionHorizontal(t *testing.T) {
	ds, _ := Generate(RCV1Spec.Scaled(0.001), 3)
	parts, err := PartitionHorizontal(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, p := range parts {
		if p.NumFeatures != ds.NumFeatures {
			t.Fatal("horizontal parts must share the feature space")
		}
		total += p.Len()
	}
	if total != ds.Len() {
		t.Fatalf("partition lost instances: %d of %d", total, ds.Len())
	}
	if _, err := PartitionHorizontal(ds, 0); err == nil {
		t.Fatal("zero parts should fail")
	}
	if _, err := PartitionHorizontal(ds, ds.Len()+1); err == nil {
		t.Fatal("more parts than instances should fail")
	}
}

func TestPartitionVertical(t *testing.T) {
	ds, _ := Generate(RCV1Spec.Scaled(0.001), 4)
	parts, err := PartitionVertical(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	var featTotal int
	for pi, p := range parts {
		if p.Len() != ds.Len() {
			t.Fatal("vertical parts must share the sample space")
		}
		featTotal += p.NumFeatures
		for i, ex := range p.Examples {
			if pi == 0 && ex.Label != ds.Examples[i].Label {
				t.Fatal("guest must keep the labels")
			}
			if pi > 0 && ex.Label != -1 {
				t.Fatal("hosts must not see labels")
			}
			for _, idx := range ex.Features.Idx {
				if int(idx) >= p.NumFeatures {
					t.Fatalf("part %d has out-of-range remapped index %d", pi, idx)
				}
			}
		}
	}
	if featTotal != ds.NumFeatures {
		t.Fatalf("vertical partition lost features: %d of %d", featTotal, ds.NumFeatures)
	}
	// NNZ conservation: every stored entry lands in exactly one part.
	var nnzParts int64
	for _, p := range parts {
		for _, ex := range p.Examples {
			nnzParts += int64(ex.Features.NNZ())
		}
	}
	var nnzOrig int64
	for _, ex := range ds.Examples {
		nnzOrig += int64(ex.Features.NNZ())
	}
	if nnzParts != nnzOrig {
		t.Fatalf("vertical partition lost entries: %d of %d", nnzParts, nnzOrig)
	}
	if _, err := PartitionVertical(ds, ds.NumFeatures+1); err == nil {
		t.Fatal("more parts than features should fail")
	}
}

func TestBatches(t *testing.T) {
	ds, _ := Generate(SyntheticSpec.Scaled(0.001), 5)
	bs := ds.Batches(32)
	var covered int
	prevHi := 0
	for _, b := range bs {
		if b[0] != prevHi {
			t.Fatal("batches must tile the instance range")
		}
		covered += b[1] - b[0]
		prevHi = b[1]
	}
	if covered != ds.Len() {
		t.Fatalf("batches cover %d of %d", covered, ds.Len())
	}
	if got := ds.Batches(0); len(got) != 1 || got[0][1] != ds.Len() {
		t.Fatal("batch size 0 should produce one full batch")
	}
}

func TestMathHelpers(t *testing.T) {
	if d := Exp(0) - 1; d > 1e-12 || d < -1e-12 {
		t.Error("Exp(0) != 1")
	}
	if d := Exp(1) - 2.718281828459045; d > 1e-9 || d < -1e-9 {
		t.Errorf("Exp(1) error %v", d)
	}
	if s := Sigmoid(0); s != 0.5 {
		t.Errorf("Sigmoid(0) = %v", s)
	}
	if s := Sigmoid(100); s < 0.999 {
		t.Errorf("Sigmoid(100) = %v", s)
	}
	if s := Sigmoid(-100); s > 0.001 {
		t.Errorf("Sigmoid(-100) = %v", s)
	}
	if Exp(-800) != 0 {
		t.Error("Exp underflow should clamp to 0")
	}
}

// TestExpOfNaNIsNaN: NaN passes through Exp and Sigmoid. Range reduction
// would read int(NaN/ln2) as an exponent — MinInt64 on amd64, a halving loop
// of 2^63 steps — so the calls run under a deadline that fails rather than
// hangs.
func TestExpOfNaNIsNaN(t *testing.T) {
	done := make(chan [2]float64, 1)
	go func() { done <- [2]float64{Exp(math.NaN()), Sigmoid(math.NaN())} }()
	select {
	case got := <-done:
		if !math.IsNaN(got[0]) || !math.IsNaN(got[1]) {
			t.Fatalf("Exp(NaN) = %v, Sigmoid(NaN) = %v; want NaN", got[0], got[1])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Exp(NaN) or Sigmoid(NaN) did not return within 5 s")
	}
}

func BenchmarkGenerateRCV1Scaled(b *testing.B) {
	spec := RCV1Spec.Scaled(0.001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(spec, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
