// Package datasets provides the three evaluation datasets of the paper —
// RCV1, Avazu, and LEAF Synthetic — as deterministic generators that
// reproduce each dataset's *shape*: instance count, feature dimension,
// sparsity pattern, and label balance. The real corpora are not available
// offline; running time and throughput in the paper's experiments depend on
// these shape statistics, not on the underlying text or ad semantics (see
// DESIGN.md §1), so generated data preserves the evaluation's behaviour.
//
// Every generator accepts a scale factor so the benches run laptop-sized
// while keeping the inter-dataset ratios of Table II.
package datasets

import (
	"fmt"
	"sort"

	"flbooster/internal/mpint"
)

// SparseVec is a sparse feature vector with strictly increasing indices.
type SparseVec struct {
	Idx []int32
	Val []float64
}

// NNZ returns the number of stored (non-zero) entries.
func (v SparseVec) NNZ() int { return len(v.Idx) }

// Dot computes v · w for a dense weight vector w.
func (v SparseVec) Dot(w []float64) float64 {
	var s float64
	for i, idx := range v.Idx {
		s += v.Val[i] * w[idx]
	}
	return s
}

// AddScaledInto accumulates dst += scale * v for a dense dst.
func (v SparseVec) AddScaledInto(dst []float64, scale float64) {
	for i, idx := range v.Idx {
		dst[idx] += scale * v.Val[i]
	}
}

// Example is one labelled training instance. Label is 0 or 1.
type Example struct {
	Features SparseVec
	Label    float64
}

// Dataset is an in-memory dataset.
type Dataset struct {
	Name        string
	NumFeatures int
	Examples    []Example
}

// Len returns the number of instances.
func (d *Dataset) Len() int { return len(d.Examples) }

// Stats summarizes the dataset for reports (Table II analogue).
type Stats struct {
	Name      string
	Instances int
	Features  int
	AvgNNZ    float64
	Positives float64 // fraction of label-1 instances
	Bytes     int64   // approximate in-memory payload
}

// Stats computes summary statistics.
func (d *Dataset) Stats() Stats {
	var nnz, pos int64
	for _, ex := range d.Examples {
		nnz += int64(ex.Features.NNZ())
		if ex.Label > 0.5 {
			pos++
		}
	}
	n := len(d.Examples)
	s := Stats{Name: d.Name, Instances: n, Features: d.NumFeatures, Bytes: nnz * 12}
	if n > 0 {
		s.AvgNNZ = float64(nnz) / float64(n)
		s.Positives = float64(pos) / float64(n)
	}
	return s
}

// Spec describes one of the paper's datasets at full scale (Table II).
type Spec struct {
	Name      string
	Instances int
	Features  int
	// AvgActive is the mean active features per instance (the sparsity).
	AvgActive int
	// Dense marks the Synthetic dataset, which has no sparsity.
	Dense bool
}

// The paper's three datasets at full scale.
var (
	// RCV1Spec: newswire text categorization, 677,399 × 47,236, sparse.
	RCV1Spec = Spec{Name: "RCV1", Instances: 677_399, Features: 47_236, AvgActive: 75}
	// AvazuSpec: CTR prediction, 1,719,304 × 1,000,000, one-hot categorical
	// fields (~22 active per row).
	AvazuSpec = Spec{Name: "Avazu", Instances: 1_719_304, Features: 1_000_000, AvgActive: 22}
	// SyntheticSpec: the LEAF synthetic classification task, 100,000 × 10,000
	// dense.
	SyntheticSpec = Spec{Name: "Synthetic", Instances: 100_000, Features: 10_000, AvgActive: 10_000, Dense: true}
)

// AllSpecs lists the evaluation datasets in the paper's order.
func AllSpecs() []Spec { return []Spec{RCV1Spec, AvazuSpec, SyntheticSpec} }

// Scaled returns the spec shrunk by the given factor (instances and, for
// very high-dimensional data, features), keeping at least one instance.
func (s Spec) Scaled(scale float64) Spec {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	out := s
	out.Instances = int(float64(s.Instances) * scale)
	if out.Instances < 1 {
		out.Instances = 1
	}
	out.Features = int(float64(s.Features) * scale)
	if out.Features < 16 {
		out.Features = 16
	}
	if out.AvgActive > out.Features {
		out.AvgActive = out.Features
	}
	if s.Dense {
		out.AvgActive = out.Features
	}
	return out
}

// Generate materializes a dataset from a spec. Generation is deterministic
// in (spec, seed).
func Generate(spec Spec, seed uint64) (*Dataset, error) {
	if spec.Instances < 1 || spec.Features < 1 {
		return nil, fmt.Errorf("datasets: spec %q needs positive dimensions", spec.Name)
	}
	if spec.Dense {
		return generateDense(spec, seed), nil
	}
	return generateSparse(spec, seed), nil
}

// generateSparse draws documents with log-normal-ish lengths over a Zipfian
// feature popularity distribution — the shape of bag-of-words (RCV1) and
// hashed one-hot categorical (Avazu) data. Labels come from a sparse ground-
// truth linear model so that LR training has signal to converge on.
func generateSparse(spec Spec, seed uint64) *Dataset {
	rng := mpint.NewRNG(seed)
	truth := make([]float64, spec.Features)
	for i := range truth {
		if rng.Float64() < 0.05 {
			truth[i] = rng.NormFloat64()
		}
	}
	ds := &Dataset{Name: spec.Name, NumFeatures: spec.Features, Examples: make([]Example, spec.Instances)}
	for i := range ds.Examples {
		// Document length: AvgActive scaled by a heavy-ish multiplicative
		// factor, clamped to [1, 4·avg].
		ln := rng.NormFloat64()*0.5 + 1
		nActive := int(float64(spec.AvgActive) * ln)
		if nActive < 1 {
			nActive = 1
		}
		if max := 4 * spec.AvgActive; nActive > max {
			nActive = max
		}
		if nActive > spec.Features {
			nActive = spec.Features
		}
		seen := make(map[int32]bool, nActive)
		idx := make([]int32, 0, nActive)
		// Popular features collide often; bound the rejection sampling and
		// fill any remainder with a deterministic sweep so documents that
		// need most of a (scaled-down) vocabulary still terminate.
		for attempts := 0; len(idx) < nActive && attempts < 16*nActive; attempts++ {
			f := zipfIndex(rng, spec.Features)
			if !seen[f] {
				seen[f] = true
				idx = append(idx, f)
			}
		}
		for f := int32(0); len(idx) < nActive; f++ {
			if !seen[f] {
				seen[f] = true
				idx = append(idx, f)
			}
		}
		sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
		val := make([]float64, nActive)
		var dot float64
		for j, f := range idx {
			val[j] = 1 // binary bag-of-words / one-hot
			dot += truth[f]
		}
		label := 0.0
		if sigmoid(dot+rng.NormFloat64()*0.3) > 0.5 {
			label = 1
		}
		ds.Examples[i] = Example{Features: SparseVec{Idx: idx, Val: val}, Label: label}
	}
	return ds
}

// zipfIndex draws a feature index with power-law popularity: index
// ⌊n·u³⌋ for uniform u concentrates mass on low indices (popular features)
// while covering the whole range.
func zipfIndex(rng *mpint.RNG, n int) int32 {
	u := rng.Float64()
	idx := int64(float64(n) * u * u * u)
	if idx >= int64(n) {
		idx = int64(n) - 1
	}
	return int32(idx)
}

func expFloat(x float64) float64 {
	if x != x {
		return x // NaN: int(NaN/ln2) below is no exponent to scale by
	}
	if x > 700 {
		x = 700
	}
	if x < -700 {
		return 0
	}
	// Range-reduce: x = k·ln2 + r, |r| ≤ ln2/2; e^x = 2^k · e^r.
	const ln2 = 0.6931471805599453
	k := int(x/ln2 + 0.5)
	if x < 0 {
		k = int(x/ln2 - 0.5)
	}
	r := x - float64(k)*ln2
	term, sum := 1.0, 1.0
	for i := 1; i < 30; i++ {
		term *= r / float64(i)
		sum += term
		if term < 1e-18 && term > -1e-18 {
			break
		}
	}
	// Scale by 2^k.
	for ; k > 0; k-- {
		sum *= 2
	}
	for ; k < 0; k++ {
		sum /= 2
	}
	return sum
}

func sigmoid(x float64) float64 { return 1 / (1 + expFloat(-x)) }

// Sigmoid exposes the dependency-free logistic function for the models.
func Sigmoid(x float64) float64 { return sigmoid(x) }

// Exp exposes the dependency-free exponential for the models.
func Exp(x float64) float64 { return expFloat(x) }

// Log is mpint.Ln, the repository's one natural logarithm, for the models.
func Log(x float64) float64 { return mpint.Ln(x) }

// generateDense reproduces the LEAF synthetic recipe: x ~ N(0, I),
// y = 1{w·x + b + ε > 0} with a dense ground-truth w.
func generateDense(spec Spec, seed uint64) *Dataset {
	rng := mpint.NewRNG(seed)
	truth := make([]float64, spec.Features)
	for i := range truth {
		truth[i] = rng.NormFloat64() / float64(spec.Features)
	}
	// Every row's indices are 0…F−1 and nothing writes Features.Idx, so the
	// rows share one read-only index vector.
	idx := make([]int32, spec.Features)
	for f := range idx {
		idx[f] = int32(f)
	}
	ds := &Dataset{Name: spec.Name, NumFeatures: spec.Features, Examples: make([]Example, spec.Instances)}
	for i := range ds.Examples {
		val := make([]float64, spec.Features)
		var dot float64
		for f := 0; f < spec.Features; f++ {
			val[f] = rng.NormFloat64()
			dot += val[f] * truth[f] * float64(spec.Features)
		}
		label := 0.0
		if dot+rng.NormFloat64()*0.1 > 0 {
			label = 1
		}
		ds.Examples[i] = Example{Features: SparseVec{Idx: idx, Val: val}, Label: label}
	}
	return ds
}

// PartitionHorizontal splits instances across `parts` parties with identical
// feature spaces — the homogeneous (cross-device) FL layout.
func PartitionHorizontal(d *Dataset, parts int) ([]*Dataset, error) {
	if parts < 1 || parts > d.Len() {
		return nil, fmt.Errorf("datasets: cannot split %d instances into %d parts", d.Len(), parts)
	}
	out := make([]*Dataset, parts)
	per := d.Len() / parts
	for p := 0; p < parts; p++ {
		lo := p * per
		hi := lo + per
		if p == parts-1 {
			hi = d.Len()
		}
		out[p] = &Dataset{
			Name:        fmt.Sprintf("%s/h%d", d.Name, p),
			NumFeatures: d.NumFeatures,
			Examples:    d.Examples[lo:hi],
		}
	}
	return out, nil
}

// PartitionVertical splits the feature space across `parts` parties that
// share the same sample IDs — the heterogeneous (cross-silo) layout. The
// label stays with party 0 (the "guest" in FATE terminology); other parties
// receive label −1 as a sentinel for "not visible".
func PartitionVertical(d *Dataset, parts int) ([]*Dataset, error) {
	if parts < 1 || parts > d.NumFeatures {
		return nil, fmt.Errorf("datasets: cannot split %d features into %d parts", d.NumFeatures, parts)
	}
	per := d.NumFeatures / parts
	out := make([]*Dataset, parts)
	for p := 0; p < parts; p++ {
		loF := int32(p * per)
		hiF := loF + int32(per)
		if p == parts-1 {
			hiF = int32(d.NumFeatures)
		}
		exs := make([]Example, d.Len())
		for i, ex := range d.Examples {
			// Binary search the index window [loF, hiF).
			start := sort.Search(len(ex.Features.Idx), func(j int) bool { return ex.Features.Idx[j] >= loF })
			end := sort.Search(len(ex.Features.Idx), func(j int) bool { return ex.Features.Idx[j] >= hiF })
			idx := make([]int32, end-start)
			for j := start; j < end; j++ {
				idx[j-start] = ex.Features.Idx[j] - loF
			}
			label := -1.0
			if p == 0 {
				label = ex.Label
			}
			exs[i] = Example{
				Features: SparseVec{Idx: idx, Val: ex.Features.Val[start:end]},
				Label:    label,
			}
		}
		out[p] = &Dataset{
			Name:        fmt.Sprintf("%s/v%d", d.Name, p),
			NumFeatures: int(hiF - loF),
			Examples:    exs,
		}
	}
	return out, nil
}

// Batches cuts the instance range into minibatches of the given size,
// returning [lo, hi) index pairs.
func (d *Dataset) Batches(batchSize int) [][2]int {
	if batchSize < 1 {
		batchSize = d.Len()
	}
	var out [][2]int
	for lo := 0; lo < d.Len(); lo += batchSize {
		hi := lo + batchSize
		if hi > d.Len() {
			hi = d.Len()
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}
