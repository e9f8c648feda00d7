package models

import (
	"fmt"

	"flbooster/internal/datasets"
	"flbooster/internal/fl"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

// HeteroSBT is SecureBoost (Cheng et al.): gradient-boosted decision trees
// over vertically partitioned data. The guest owns the labels, computes
// first/second-order gradients (g, h) per sample each boosting round, and
// encrypts them; hosts build encrypted per-(feature, bin) histograms by
// homomorphic subset sums and return them; the guest decrypts, scores every
// candidate split with the XGBoost gain, and grows the tree.
//
// Batch compression for SBT is SecureBoost+-style ciphertext packing: the
// (g, h) pair of one sample shares a single plaintext (g in the high slot,
// h in the low slot), halving ciphertext counts and HE operations on every
// flow while keeping subset-sum aggregation valid — multi-sample packing is
// impossible here because histogram bins select arbitrary sample subsets.
// The finished per-bin sums are another matter: a host's histogram returns
// to the guest on the return path (fl.Context.OpenBroadcastSums at s = 1),
// which packs one 64-bit pair per slot.
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

	// ghBits is the per-component quantization width; headBits the guard
	// width sized for the largest possible node (the full dataset).
	ghBits   uint
	headBits uint
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
	v, err := newVertical(ctx, ds, opts, "HeteroSBT")
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
	// Guard bits must absorb a sum over every sample; both packed
	// components must fit one uint64 after aggregation.
	m.headBits = ceilLog2U(ds.Len()) + 1
	m.ghBits = 20
	if ctx != nil && uint(ctx.Profile.RBits) < m.ghBits {
		m.ghBits = ctx.Profile.RBits
	}
	for 2*(m.ghBits+m.headBits) > 62 && m.ghBits > 4 {
		m.ghBits--
	}
	return m, nil
}

func ceilLog2U(n int) uint {
	var b uint
	v := 1
	for v < n {
		v <<= 1
		b++
	}
	return b
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

// --- GH quantization -------------------------------------------------------

// ghMax is the per-component quantization ceiling.
func (m *HeteroSBT) ghMax() uint64 { return 1<<m.ghBits - 1 }

// quantGH maps g ∈ [−1, 1] (and h ∈ [0, 1]) to ghBits-wide integers with the
// Eq. 6/7 shift.
func (m *HeteroSBT) quantGH(v float64) uint64 {
	if v < -1 {
		v = -1
	}
	if v > 1 {
		v = 1
	}
	return uint64((v + 1) / 2 * float64(m.ghMax()))
}

// dequantGHSum decodes a homomorphic sum of cnt quantized components.
func (m *HeteroSBT) dequantGHSum(sum uint64, cnt int) float64 {
	return float64(sum)/float64(m.ghMax())*2 - float64(cnt)
}

// slotWidth is the packed per-component width (value + guard bits).
func (m *HeteroSBT) slotWidth() uint { return m.ghBits + m.headBits }

// encryptGH encrypts the per-sample gradient/hessian streams. With batch
// compression, one ciphertext carries the (g, h) pair; otherwise g and h
// each get their own ciphertext, concatenated as [g...; h...].
func (m *HeteroSBT) encryptGH(g, h []float64) ([]paillier.Ciphertext, error) {
	n := len(g)
	packed := m.ctx.Profile.UseBatch()
	var pts []mpint.Nat
	if packed {
		pts = make([]mpint.Nat, n)
		for i := range g {
			v := m.quantGH(g[i])<<m.slotWidth() | m.quantGH(h[i])
			pts[i] = mpint.FromUint64(v)
		}
	} else {
		pts = make([]mpint.Nat, 2*n)
		for i := range g {
			pts[i] = mpint.FromUint64(m.quantGH(g[i]))
			pts[n+i] = mpint.FromUint64(m.quantGH(h[i]))
		}
	}
	cts, err := m.ctx.EncryptNats(pts, int64(2*n))
	if err != nil {
		return nil, err
	}
	m.ctx.Costs.AddCompression(int64(2*n), int64(len(cts)))
	return cts, nil
}

// ghSums states the subset sum of one histogram bin over the encrypted
// gradient vector of n samples, as unit-weight terms: one sum over the packed
// pairs, or the g sum and the h sum apart (sample i's g at i, its h at n+i).
func (m *HeteroSBT) ghSums(n int, samples []int) [][]mpint.Term {
	gs := make([]mpint.Term, len(samples))
	for k, s := range samples {
		gs[k] = mpint.Term{Index: s, Weight: 1}
	}
	if m.ctx.Profile.UseBatch() {
		return [][]mpint.Term{gs}
	}
	hs := make([]mpint.Term, len(samples))
	for k, s := range samples {
		hs[k] = mpint.Term{Index: n + s, Weight: 1}
	}
	return [][]mpint.Term{gs, hs}
}

// decodeGH splits a decrypted histogram sum into (G, H) for cnt samples.
func (m *HeteroSBT) decodeGH(raw []uint64, cnt int) (gSum, hSum float64) {
	if m.ctx.Profile.UseBatch() {
		v := raw[0]
		mask := uint64(1)<<m.slotWidth() - 1
		gSum = m.dequantGHSum(v>>m.slotWidth(), cnt)
		hSum = m.dequantGHSum(v&mask, cnt)
		return gSum, hSum
	}
	return m.dequantGHSum(raw[0], cnt), m.dequantGHSum(raw[1], cnt)
}

// ghSumBounds is the values each ciphertext of a cnt-sample histogram sum can
// open to, in decodeGH's layout: an unsigned sum, [0, B]; headBits keeps B
// under 2^62.
func (m *HeteroSBT) ghSumBounds(cnt int) []fl.Bound {
	comp := uint64(cnt) * m.ghMax()
	if m.ctx.Profile.UseBatch() {
		return []fl.Bound{{Hi: comp<<m.slotWidth() | comp}}
	}
	return []fl.Bound{{Hi: comp}, {Hi: comp}}
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
	n := m.full.Len()
	hostCts := make([][]paillier.Ciphertext, len(m.parts))
	if m.ctx != nil {
		cts, err := m.encryptGH(g, h)
		if err != nil {
			return nil, err
		}
		for p := 1; p < len(m.parts); p++ {
			if hostCts[p], err = m.ctx.SendCiphertexts(m.net, m.names[0], m.names[p], "gh", cts); err != nil {
				return nil, err
			}
		}
		fl.ReleaseCiphertexts(cts)
	}
	root, err := m.growNode(samples, g, h, hostCts, n, 0)
	for _, cts := range hostCts {
		fl.ReleaseCiphertexts(cts)
	}
	return root, err
}

func (m *HeteroSBT) growNode(samples []int, g, h []float64, hostCts [][]paillier.Ciphertext, n, depth int) (*sbtNode, error) {
	gTot, hTot := sumGH(samples, g, h)
	if depth >= m.MaxDepth || len(samples) < 4 {
		return m.leaf(gTot, hTot), nil
	}
	best := splitCandidate{gain: m.Gamma}
	for p := range m.parts {
		cand, err := m.partyBestSplit(p, samples, g, h, hostCts[p], n, gTot, hTot)
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
	l, err := m.growNode(left, g, h, hostCts, n, depth+1)
	if err != nil {
		return nil, err
	}
	r, err := m.growNode(right, g, h, hostCts, n, depth+1)
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
func (m *HeteroSBT) partyBestSplit(p int, samples []int, g, h []float64, cts []paillier.Ciphertext, n int, gTot, hTot float64) (splitCandidate, error) {
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
			// non-empty bin (two without packing, g and h apart), all of the
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
				histSums = append(histSums, m.ghSums(n, list)...)
				histBounds = append(histBounds, m.ghSumBounds(len(list))...)
				histIdx = append(histIdx, b)
			}
			if len(histSums) == 0 {
				continue
			}
			histCts, err := m.ctx.BroadcastSums(cts, histSums, 1, false)
			if err != nil {
				return best, err
			}
			// The guest holds the key and keeps the values: no reply.
			route := fl.ReturnRoute{Net: m.net, Party: m.names[p], Decryptor: m.names[0], Kind: "hist"}
			raws, err := m.ctx.OpenBroadcastSums(route, histCts, histBounds, 1)
			if err != nil {
				return best, err
			}
			per := len(histCts) / len(histIdx)
			for k, b := range histIdx {
				gBins[b], hBins[b] = m.decodeGH(raws[k*per:(k+1)*per], cnts[b])
			}
			fl.ReleaseCiphertexts(histCts)
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
		if sides, err = m.ctx.SendValues(m.net, m.names[c.party], m.names[0], "split", sides); err != nil {
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
