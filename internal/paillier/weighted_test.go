package paillier

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
	"strings"
	"testing"

	"flbooster/internal/ghe"
	"flbooster/internal/gpu"
	"flbooster/internal/mpint"
)

// treeWeightedSums is how a weighted sum was lowered before WeightedSumVec —
// one MulPlainVec over the terms weighted above one, then a log-depth tree of
// AddVec launches, a sum at a time. It survives here as the oracle and as the
// baseline BenchmarkWeightedSums measures the kernel against.
func treeWeightedSums(be Backend, pk *PublicKey, cts []Ciphertext, sums [][]mpint.Term) ([]Ciphertext, error) {
	out := make([]Ciphertext, len(sums))
	for j, sum := range sums {
		var work, sel []Ciphertext
		var exps []mpint.Nat
		for _, t := range sum {
			switch t.Weight {
			case 0:
			case 1:
				work = append(work, cts[t.Index])
			default:
				sel, exps = append(sel, cts[t.Index]), append(exps, mpint.FromUint64(t.Weight))
			}
		}
		if len(sel) > 0 {
			pows, err := be.MulPlainVec(pk, sel, exps)
			if err != nil {
				return nil, err
			}
			work = append(work, pows...)
		}
		if len(work) == 0 {
			out[j] = Ciphertext{C: mpint.One()}
			continue
		}
		for len(work) > 1 {
			half := len(work) / 2
			folded, err := be.AddVec(pk, work[:half], work[half:2*half])
			if err != nil {
				return nil, err
			}
			work = append(folded, work[2*half:]...)
		}
		out[j] = work[0]
	}
	return out, nil
}

// lrSums is the shape of a Hetero LR host-batch: every sum weighs every
// ciphertext, by up to `bits` bits.
func lrSums(r *mpint.RNG, cts, sums, bits int) [][]mpint.Term {
	out := make([][]mpint.Term, sums)
	for j := range out {
		for i := 0; i < cts; i++ {
			out[j] = append(out[j], mpint.Term{Index: i, Weight: r.RandBits(bits)[0]})
		}
	}
	return out
}

// histSums is the shape of an SBT node-feature: every sample in one bin,
// unit weights.
func histSums(r *mpint.RNG, samples, bins int) [][]mpint.Term {
	out := make([][]mpint.Term, bins)
	for i := 0; i < samples; i++ {
		b := r.Intn(bins)
		out[b] = append(out[b], mpint.Term{Index: i, Weight: 1})
	}
	return out
}

// TestWeightedSumVecBackendsAgree: the GPU backend's kernel — on one device,
// sharded over two and three with every lane verified, on the host loop after
// its device died and over no device at all — FATE's serial per-term loop and
// the old MulPlainVec + AddVec tree on one device and on none produce the same
// ciphertexts, which open to Σ w·m mod n.
func TestWeightedSumVecBackendsAgree(t *testing.T) {
	sk, err := hostSearchKey(mpint.NewRNG(31), 512)
	if err != nil {
		t.Fatal(err)
	}
	pk := &sk.PublicKey
	r := mpint.NewRNG(32)
	ms := make([]mpint.Nat, 24)
	for i := range ms {
		ms[i] = r.RandBits(30)
	}
	none := hostBackend(t)
	cts, err := none.EncryptVec(pk, ms, 33)
	if err != nil {
		t.Fatal(err)
	}
	sums := append(lrSums(r, len(cts), 6, 10), histSums(r, len(cts), 5)...)
	sums = append(sums,
		nil,
		[]mpint.Term{{Index: 4, Weight: 0}},
		[]mpint.Term{{Index: 7, Weight: 1}},
		[]mpint.Term{{Index: 2, Weight: ^uint64(0)}, {Index: 2, Weight: 3}, {Index: 0, Weight: 1 << 40}})

	want, err := serialWeightedSums(pk, cts, sums)
	if err != nil {
		t.Fatal(err)
	}
	single, host := singleBackend(t), MustGPUBackend(hostExecutor(t, gpu.SmallTestDevice()))
	backends := map[string]func() ([]Ciphertext, error){
		"gpu":               func() ([]Ciphertext, error) { return single.WeightedSumVec(pk, cts, sums) },
		"gpu host loop":     func() ([]Ciphertext, error) { return host.WeightedSumVec(pk, cts, sums) },
		"no device":         func() ([]Ciphertext, error) { return none.WeightedSumVec(pk, cts, sums) },
		"tree on no device": func() ([]Ciphertext, error) { return treeWeightedSums(none, pk, cts, sums) },
		"tree on gpu":       func() ([]Ciphertext, error) { return treeWeightedSums(single, pk, cts, sums) },
	}
	for _, d := range []int{2, 3} {
		eng := executor(t, gpu.SmallTestDevice(), d, ghe.CheckedConfig{VerifyFraction: 1})
		backends[fmt.Sprintf("gpu over %d devices", d)] = func() ([]Ciphertext, error) {
			return MustGPUBackend(eng).WeightedSumVec(pk, cts, sums)
		}
	}
	for name, run := range backends {
		got, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameCts(t, name, got, want)
	}

	pts, err := none.DecryptVec(sk, want)
	if err != nil {
		t.Fatal(err)
	}
	bn := new(big.Int).SetBytes(pk.N.Bytes())
	for j, sum := range sums {
		total := new(big.Int)
		for _, tm := range sum {
			total.Add(total, new(big.Int).Mul(new(big.Int).SetUint64(tm.Weight), new(big.Int).SetBytes(ms[tm.Index].Bytes())))
		}
		if total.Mod(total, bn); new(big.Int).SetBytes(pts[j].Bytes()).Cmp(total) != 0 {
			t.Errorf("sum %d opens to %s, want %s", j, pts[j], total)
		}
	}
	// A sum without a term is the ciphertext 1 on every backend.
	if !want[len(sums)-4].C.IsOne() || !want[len(sums)-3].C.IsOne() {
		t.Error("an empty sum is not the trivial encryption of zero")
	}

	for name, be := range map[string]Backend{"no device": none, "gpu": single} {
		for _, bad := range [][][]mpint.Term{
			{{{Index: len(cts), Weight: 1}}},
			{nil, {{Index: 0, Weight: 2}, {Index: -1, Weight: 0}}},
		} {
			if got, err := be.WeightedSumVec(pk, cts, bad); !errors.Is(err, mpint.ErrTermIndex) || got != nil {
				t.Errorf("%s: sums %v returned %d ciphertexts, error %v, want ErrTermIndex", name, bad, len(got), err)
			}
		}
		if got, err := be.WeightedSumVec(pk, cts, nil); err != nil || len(got) != 0 {
			t.Errorf("%s: no sums returned %d ciphertexts, error %v", name, len(got), err)
		}
	}
}

// signedLRSums is lrSums with every other term negative: every ciphertext
// weighed by both signs, so every base gets an inverted row.
func signedLRSums(r *mpint.RNG, cts, sums, bits int) [][]mpint.Term {
	out := lrSums(r, cts, sums, bits)
	for j := range out {
		for i := range out[j] {
			out[j][i].Neg = (i+j)%2 == 1
		}
	}
	return out
}

// TestSignedWeightedSumVec: signed sums — mixed signs, all negative, one
// ciphertext weighed by both signs — come out the same ciphertexts on FATE's
// serial per-term loop, the kernel over no device, on one and sharded over two
// with every lane verified, and open to Σ ±w·m mod n. A negative term over a
// ciphertext with no inverse mod n² is mpint.ErrNotInvertible over no device
// and over one.
func TestSignedWeightedSumVec(t *testing.T) {
	sk, err := hostSearchKey(mpint.NewRNG(41), 512)
	if err != nil {
		t.Fatal(err)
	}
	pk := &sk.PublicKey
	r := mpint.NewRNG(42)
	ms := make([]mpint.Nat, 16)
	for i := range ms {
		ms[i] = r.RandBits(30)
	}
	none := hostBackend(t)
	cts, err := none.EncryptVec(pk, ms, 43)
	if err != nil {
		t.Fatal(err)
	}
	sums := signedLRSums(r, len(cts), 4, 10)
	allNeg := lrSums(r, len(cts), 1, 10)[0]
	for i := range allNeg {
		allNeg[i].Neg = true
	}
	sums = append(sums, allNeg, []mpint.Term{{Index: 2, Weight: 9}, {Index: 2, Weight: 4, Neg: true}, {Index: 5, Weight: 1, Neg: true}})

	want, err := serialWeightedSums(pk, cts, sums)
	if err != nil {
		t.Fatal(err)
	}
	eng := executor(t, gpu.SmallTestDevice(), 2, ghe.CheckedConfig{VerifyFraction: 1})
	single := singleBackend(t)
	for name, be := range map[string]Backend{"no device": none, "gpu": single, "gpu over 2 devices": MustGPUBackend(eng)} {
		got, err := be.WeightedSumVec(pk, cts, sums)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameCts(t, name, got, want)
	}
	pts, err := none.DecryptVec(sk, want)
	if err != nil {
		t.Fatal(err)
	}
	bn := new(big.Int).SetBytes(pk.N.Bytes())
	for j, sum := range sums {
		total := new(big.Int)
		for _, tm := range sum {
			v := new(big.Int).Mul(new(big.Int).SetUint64(tm.Weight), new(big.Int).SetBytes(ms[tm.Index].Bytes()))
			if tm.Neg {
				v.Neg(v)
			}
			total.Add(total, v)
		}
		if total.Mod(total, bn); new(big.Int).SetBytes(pts[j].Bytes()).Cmp(total) != 0 {
			t.Errorf("sum %d opens to %s, want %s", j, pts[j], total)
		}
	}

	// A ciphertext that shares n's factor p has no inverse mod n².
	bad := append(slices.Clone(cts), Ciphertext{C: sk.P})
	badSums := [][]mpint.Term{{{Index: 0, Weight: 2}, {Index: len(cts), Weight: 3, Neg: true}}}
	for name, be := range map[string]Backend{"no device": none, "gpu": single} {
		if got, err := be.WeightedSumVec(pk, bad, badSums); !errors.Is(err, mpint.ErrNotInvertible) || got != nil {
			t.Errorf("%s: %d ciphertexts, error %v, want ErrNotInvertible", name, len(got), err)
		}
	}
}

// BenchmarkWeightedSums measures WeightedSumVec against the tree it replaced,
// on one modelled RTX 3090, at the shapes the vertical models launch: a
// Hetero LR host-batch (32 residuals, 8 sums, 10-bit weights) under 1,024- and
// 2,048-bit keys, the same with every other term negative (its own
// ciphertexts' inverted rows, kernel only: the tree has no sign), and an SBT
// node-feature (64 samples over 16 bins, unit weights). The bases are random
// residues mod n², which time like ciphertexts.
func BenchmarkWeightedSums(b *testing.B) {
	for _, bits := range []int{1024, 2048} {
		sk, err := hostSearchKey(mpint.NewRNG(2), bits)
		if err != nil {
			b.Fatal(err)
		}
		pk := &sk.PublicKey
		r := mpint.NewRNG(uint64(bits))
		cts := make([]Ciphertext, 64)
		for i := range cts {
			cts[i] = Ciphertext{C: r.RandBelow(pk.N2)}
		}
		be := executorBackend(b)
		for _, shape := range []struct {
			name string
			cts  int
			sums [][]mpint.Term
		}{
			{"lr-32x8x10bit", 32, lrSums(r, 32, 8, 10)},
			{"sbt-64x16xunit", 64, histSums(r, 64, 16)},
			{"lr-32x8x10bit-signed", 32, signedLRSums(r, 32, 8, 10)},
		} {
			if bits == 2048 && shape.cts == 64 {
				continue
			}
			b.Run(fmt.Sprintf("%d/%s/kernel", bits, shape.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := be.WeightedSumVec(pk, cts[:shape.cts], shape.sums); err != nil {
						b.Fatal(err)
					}
				}
			})
			if strings.HasSuffix(shape.name, "signed") {
				continue
			}
			b.Run(fmt.Sprintf("%d/%s/tree", bits, shape.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := treeWeightedSums(be, pk, cts[:shape.cts], shape.sums); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
