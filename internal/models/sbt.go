package models

import (
	"fmt"

	"flbooster/internal/batch"
	"flbooster/internal/datasets"
	"flbooster/internal/fl"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
	"flbooster/internal/quant"
)

// HeteroSBT is SecureBoost (Cheng et al.): gradient-boosted decision trees
// over vertically partitioned data. The guest owns the labels, computes
// first/second-order gradients (g, h) per sample each boosting round, and
// encrypts them; hosts build encrypted per-(feature, bin) histograms by
// homomorphic subset sums and return them; the guest decrypts, scores every
// candidate split with the XGBoost gain, and grows the tree.
//
// The (g, h) stream is the platform's two layers, built once by ghEncoding:
// one quant.Quantizer (Eqs. 6–7, α = 1) whose guard spans a sum over every
// sample, and one batch.Layout of its r+b-bit slots, value 2i sample i's h
// and 2i+1 its g. Batch compression is the layout's value count: two a
// plaintext, SecureBoost+-style, so one ciphertext carries a sample's pair
// (g in the high slot) and a bin's subset sum stays valid; one without it.
// The finished per-bin sums return to the guest on the return path
// (fl.Party.OpenBroadcastSums at s = 1), which packs one 64-bit word per
// slot, and the guest splits each word back with the same layout.
type HeteroSBT struct {
	vertical

	// Trees is the grown ensemble.
	Trees []*sbtNode
	// margins holds the ensemble's raw scores per training sample.
	margins []float64

	// Tuning knobs (XGBoost-standard).
	MaxDepth int
	Bins     int
	Lambda   float64 // leaf L2
	Gamma    float64 // split penalty
	Eta      float64 // shrinkage

	// quant and layout are the (g, h) encoding (ghEncoding); nil and zero in
	// oracle mode.
	quant  *quant.Quantizer
	layout batch.Layout
}

// sbtNode is one tree node. Split nodes carry the owning party and its
// local feature/threshold; leaves carry the output weight.
type sbtNode struct {
	Party     int
	Feature   int
	Threshold float64
	Left      *sbtNode
	Right     *sbtNode
	Leaf      bool
	Weight    float64
}

// NewHeteroSBT partitions ds vertically and prepares a boosting trainer.
func NewHeteroSBT(ctx *fl.Context, ds *datasets.Dataset, opts Options) (*HeteroSBT, error) {
	v, err := newVertical(ctx, ds, opts, "HeteroSBT", hostName(0))
	if err != nil {
		return nil, err
	}
	m := &HeteroSBT{
		vertical: v,
		margins:  make([]float64, ds.Len()),
		MaxDepth: 3,
		Bins:     8,
		Lambda:   1,
		Gamma:    0,
		Eta:      0.3,
	}
	if ctx != nil {
		if m.quant, m.layout, err = ghEncoding(ds.Len(), uint(ctx.Profile.RBits), ctx.Profile.UseBatch()); err != nil {
			m.Close()
			return nil, err
		}
	}
	return m, nil
}

// ghEncoding is the (g, h) encoding of n samples: a quantizer with α = 1 and
// participants n, since a histogram sum spans up to every sample, so its guard
// is b = ⌈log₂ n⌉; and the layout of its r+b-bit slots, the value at the
// bottom and no guard, two values a plaintext when packed and one otherwise.
// r is the widest value up to min(20, rBits) for which the pair's 2(r+b) bits
// fit the return path's 64-bit slot, packed or not, so that both profiles
// quantise alike; an n that leaves no room for r = 2 is quant.New's error.
func ghEncoding(n int, rBits uint, packed bool) (*quant.Quantizer, batch.Layout, error) {
	q, err := quant.New(1, min(20, rBits), n)
	for err == nil && 2*q.SlotBits() > 64 {
		q, err = quant.New(1, q.RBits()-1, n)
	}
	if err != nil {
		return nil, batch.Layout{}, fmt.Errorf("models: the (g, h) encoding of %d samples: %w", n, err)
	}
	slot, per := int(q.SlotBits()), 1
	if packed {
		per = 2
	}
	l, err := batch.NewLayout(per*slot, slot, 0, slot, 0)
	return q, l, err
}

// Loss implements Model: mean log-loss of the current ensemble margins.
func (m *HeteroSBT) Loss() float64 {
	var loss float64
	for i, ex := range m.full.Examples {
		loss += crossEntropy(datasets.Sigmoid(m.margins[i]), ex.Label)
	}
	return loss / float64(m.full.Len())
}

// gradients computes per-sample (g, h) from the current margins.
func (m *HeteroSBT) gradients() (g, h []float64) {
	n := m.full.Len()
	g = make([]float64, n)
	h = make([]float64, n)
	for i, ex := range m.full.Examples {
		p := datasets.Sigmoid(m.margins[i])
		g[i] = p - ex.Label
		h[i] = p * (1 - p)
		if h[i] < 1e-6 {
			h[i] = 1e-6
		}
	}
	return g, h
}

// --- GH encoding ------------------------------------------------------------

// encryptGH encrypts the per-sample gradient/hessian streams, quantized and
// packed in the (g, h) layout: value 2i is h[i], 2i+1 is g[i].
func (m *HeteroSBT) encryptGH(g, h []float64) ([]paillier.Ciphertext, error) {
	n := 2 * len(g)
	pts := m.layout.Pack(nil, n, func(i int) uint64 {
		if i%2 == 0 {
			return m.quant.Quantize(h[i/2])
		}
		return m.quant.Quantize(g[i/2])
	})
	cts, err := m.holder.EncryptNats(pts, int64(n)) // the public key: holder-side encryption is parked
	if err != nil {
		return nil, err
	}
	m.ctx.Costs.AddCompression(int64(n), int64(len(cts)))
	return cts, nil
}

// ghSums states the subset sum of one histogram bin over the encrypted (g, h)
// stream as unit-weight terms: one sum for each plaintext of a sample's pair,
// sample s's c-th at plaintext 2s/per + c.
func (m *HeteroSBT) ghSums(samples []int) [][]mpint.Term {
	sums := make([][]mpint.Term, m.layout.Plaintexts(2))
	for c := range sums {
		sums[c] = make([]mpint.Term, len(samples))
		for k, s := range samples {
			sums[c][k] = mpint.Term{Index: 2*s/m.layout.Per() + c, Weight: 1}
		}
	}
	return sums
}

// decodeGH splits a bin's opened words, one plaintext each, back into the
// (G, H) sums of its cnt samples. A value above cnt·(2^r − 1) is
// quant.ErrOverflow; a word above its slots is batch.ErrTooWide.
func (m *HeteroSBT) decodeGH(words []uint64, cnt int) (gSum, hSum float64, err error) {
	pts := make([]mpint.Nat, len(words))
	for i := range words {
		pts[i] = words[i : i+1]
	}
	hg, err := batch.Split(m.layout, pts, 2, func(_ int, v uint64) (float64, error) {
		return m.quant.DequantizeSum(v, cnt)
	})
	if err != nil {
		return 0, 0, err
	}
	return hg[1], hg[0], nil
}

// ghSumBounds is what each ciphertext of a cnt-sample histogram sum can open
// to, [0, B]: B the pair packed at cnt·(2^r − 1), its largest sum.
func (m *HeteroSBT) ghSumBounds(cnt int) []fl.Bound {
	top := uint64(cnt) * m.quant.MaxQ()
	pts := m.layout.Pack(nil, 2, func(int) uint64 { return top })
	bounds := make([]fl.Bound, len(pts))
	for i, pt := range pts {
		bounds[i].Hi = pt.Field(0)
	}
	return bounds
}

// --- training ---------------------------------------------------------------

// TrainEpoch implements Model: one boosting round grows one tree on the full
// dataset and updates the margins.
func (m *HeteroSBT) TrainEpoch() (float64, error) {
	g, h := m.gradients()
	all := make([]int, m.full.Len())
	for i := range all {
		all[i] = i
	}
	root, err := m.buildTree(all, g, h)
	if err != nil {
		return 0, err
	}
	m.Trees = append(m.Trees, root)
	for i := range m.margins {
		m.margins[i] += m.Eta * m.predictTree(root, i)
	}
	return m.Loss(), nil
}

// buildTree runs the SecureBoost protocol for one tree; in oracle mode the
// hosts' histograms are plaintext and nothing is encrypted or sent. The guest
// encrypts the (g, h) stream once a tree and sends it to every host ("gh");
// host p builds its histograms over its own decoded copy, hostCts[p], which
// dies with the tree, and the guest's batch once framed.
func (m *HeteroSBT) buildTree(samples []int, g, h []float64) (*sbtNode, error) {
	hostCts := make([][]paillier.Ciphertext, len(m.parts))
	if m.ctx != nil {
		cts, err := m.encryptGH(g, h)
		if err != nil {
			return nil, err
		}
		for p := 1; p < len(m.parts); p++ {
			if hostCts[p], err = m.holder.SendCiphertexts(m.net, m.parties[p].Name, "gh", cts); err != nil {
				return nil, err
			}
		}
		fl.ReleaseCiphertexts(cts)
	}
	root, err := m.growNode(samples, g, h, hostCts, 0)
	for _, cts := range hostCts {
		fl.ReleaseCiphertexts(cts)
	}
	return root, err
}

func (m *HeteroSBT) growNode(samples []int, g, h []float64, hostCts [][]paillier.Ciphertext, depth int) (*sbtNode, error) {
	gTot, hTot := sumGH(samples, g, h)
	if depth >= m.MaxDepth || len(samples) < 4 {
		return m.leaf(gTot, hTot), nil
	}
	best := splitCandidate{gain: m.Gamma}
	for p := range m.parts {
		cand, err := m.partyBestSplit(p, samples, g, h, hostCts[p], gTot, hTot)
		if err != nil {
			return nil, err
		}
		if cand.gain > best.gain {
			best = cand
		}
	}
	if best.gain <= m.Gamma || best.feature < 0 {
		return m.leaf(gTot, hTot), nil
	}
	left, right, err := m.partition(best, samples)
	if err != nil {
		return nil, err
	}
	if len(left) == 0 || len(right) == 0 {
		return m.leaf(gTot, hTot), nil
	}
	l, err := m.growNode(left, g, h, hostCts, depth+1)
	if err != nil {
		return nil, err
	}
	r, err := m.growNode(right, g, h, hostCts, depth+1)
	if err != nil {
		return nil, err
	}
	return &sbtNode{Party: best.party, Feature: best.feature, Threshold: best.threshold, Left: l, Right: r}, nil
}

type splitCandidate struct {
	party     int
	feature   int
	threshold float64
	gain      float64
}

// partyBestSplit builds party p's histograms for the node and returns its
// best candidate. The guest (p=0) works in plaintext on its own features;
// hosts aggregate homomorphically and round-trip through the guest.
func (m *HeteroSBT) partyBestSplit(p int, samples []int, g, h []float64, cts []paillier.Ciphertext, gTot, hTot float64) (splitCandidate, error) {
	part := m.parts[p]
	best := splitCandidate{party: p, feature: -1, gain: m.Gamma}

	for j := 0; j < part.NumFeatures; j++ {
		lo, hi, present := m.featureRange(p, j, samples)
		if len(present) < 2 || lo == hi {
			continue
		}
		width := (hi - lo) / float64(m.Bins)
		binOf := func(x float64) int {
			b := int((x - lo) / width)
			if b >= m.Bins {
				b = m.Bins - 1
			}
			if b < 0 {
				b = 0
			}
			return b
		}
		// Per-bin sample lists.
		bins := make([][]int, m.Bins)
		for _, s := range present {
			b := binOf(m.featureValue(p, j, s))
			bins[b] = append(bins[b], s)
		}

		gBins := make([]float64, m.Bins)
		hBins := make([]float64, m.Bins)
		cnts := make([]int, m.Bins)
		if p == 0 || m.ctx == nil {
			// Guest-side plaintext histograms.
			for b, list := range bins {
				cnts[b] = len(list)
				gBins[b], hBins[b] = sumGH(list, g, h)
			}
		} else {
			// Host-side encrypted histograms: one homomorphic subset sum per
			// non-empty bin and plaintext of a pair (ghSums), all of the
			// feature's bins in one batch, opened by the guest over the
			// return path.
			var histSums [][]mpint.Term
			var histBounds []fl.Bound
			var histIdx []int
			for b, list := range bins {
				cnts[b] = len(list)
				if len(list) == 0 {
					continue
				}
				histSums = append(histSums, m.ghSums(list)...)
				histBounds = append(histBounds, m.ghSumBounds(len(list))...)
				histIdx = append(histIdx, b)
			}
			if len(histSums) == 0 {
				continue
			}
			histCts, err := m.parties[p].BroadcastSums(cts, histSums, 1, false)
			if err != nil {
				return best, err
			}
			// The guest holds the key and keeps the values: no reply.
			route := fl.ReturnRoute{Net: m.net, Decryptor: m.holder, Kind: "hist"}
			raws, err := m.parties[p].OpenBroadcastSums(route, histCts, histBounds, 1)
			fl.ReleaseCiphertexts(histCts) // OpenBroadcastSums framed a copy and kept none
			if err != nil {
				return best, err
			}
			words := m.layout.Plaintexts(2) // a bin's, one a plaintext of its pair
			for k, b := range histIdx {
				if gBins[b], hBins[b], err = m.decodeGH(raws[k*words:(k+1)*words], cnts[b]); err != nil {
					return best, fmt.Errorf("models: party %d's feature %d, bin %d: %w", p, j, b, err)
				}
			}
		}

		// Scan split points left-to-right (zeros/missing stay left of bin 0
		// implicitly via the node totals).
		gPresent, hPresent := 0.0, 0.0
		for b := 0; b < m.Bins; b++ {
			gPresent += gBins[b]
			hPresent += hBins[b]
		}
		gMissing, hMissing := gTot-gPresent, hTot-hPresent
		gl, hl := gMissing, hMissing // missing values go left
		for b := 0; b < m.Bins-1; b++ {
			gl += gBins[b]
			hl += hBins[b]
			gr, hr := gTot-gl, hTot-hl
			gain := m.gain(gl, hl, gr, hr, gTot, hTot)
			if gain > best.gain {
				best = splitCandidate{
					party:     p,
					feature:   j,
					threshold: lo + width*float64(b+1),
					gain:      gain,
				}
			}
		}
	}
	return best, nil
}

// gain is the XGBoost split score.
func (m *HeteroSBT) gain(gl, hl, gr, hr, gTot, hTot float64) float64 {
	return 0.5 * (gl*gl/(hl+m.Lambda) + gr*gr/(hr+m.Lambda) - gTot*gTot/(hTot+m.Lambda))
}

func (m *HeteroSBT) leaf(gSum, hSum float64) *sbtNode {
	return &sbtNode{Leaf: true, Weight: -gSum / (hSum + m.Lambda)}
}

// featureRange returns the min/max of feature j among node samples where it
// is present, plus the present-sample list.
func (m *HeteroSBT) featureRange(p, j int, samples []int) (lo, hi float64, present []int) {
	first := true
	for _, s := range samples {
		v, ok := m.lookup(p, j, s)
		if !ok {
			continue
		}
		present = append(present, s)
		if first || v < lo {
			lo = v
		}
		if first || v > hi {
			hi = v
		}
		first = false
	}
	return lo, hi, present
}

// lookup finds feature j of party p in sample s (sparse search).
func (m *HeteroSBT) lookup(p, j, s int) (float64, bool) {
	fv := m.parts[p].Examples[s].Features
	loI, hiI := 0, len(fv.Idx)
	for loI < hiI {
		mid := (loI + hiI) / 2
		switch {
		case fv.Idx[mid] == int32(j):
			return fv.Val[mid], true
		case fv.Idx[mid] < int32(j):
			loI = mid + 1
		default:
			hiI = mid
		}
	}
	return 0, false
}

func (m *HeteroSBT) featureValue(p, j, s int) float64 {
	v, _ := m.lookup(p, j, s)
	return v
}

// partition splits node samples by the winning candidate (missing → left):
// the owner's split, one word a sample, 0 left and 1 right. In encrypted mode
// a host that owns a split which sends samples both ways announces it to the
// guest (standard SecureBoost information flow), who partitions the node
// from the split it decoded.
func (m *HeteroSBT) partition(c splitCandidate, samples []int) (left, right []int, err error) {
	sides, ones := make([]uint64, len(samples)), 0
	for k, s := range samples {
		if v, ok := m.lookup(c.party, c.feature, s); ok && v > c.threshold {
			sides[k], ones = 1, ones+1
		}
	}
	if c.party != 0 && m.ctx != nil && ones > 0 && ones < len(samples) {
		if sides, err = m.parties[c.party].SendValues(m.net, m.holder.Name, "split", sides); err != nil {
			return nil, nil, err
		}
	}
	for k, s := range samples {
		switch sides[k] {
		case 0:
			left = append(left, s)
		case 1:
			right = append(right, s)
		default:
			return nil, nil, fmt.Errorf("models: party %d's split puts sample %d on side %d", c.party, s, sides[k])
		}
	}
	return left, right, nil
}

// predictTree traverses one tree for sample i.
func (m *HeteroSBT) predictTree(node *sbtNode, i int) float64 {
	for !node.Leaf {
		v, ok := m.lookup(node.Party, node.Feature, i)
		if !ok || v <= node.Threshold {
			node = node.Left
		} else {
			node = node.Right
		}
	}
	return node.Weight
}

func sumGH(samples []int, g, h []float64) (gs, hs float64) {
	for _, s := range samples {
		gs += g[s]
		hs += h[s]
	}
	return gs, hs
}
