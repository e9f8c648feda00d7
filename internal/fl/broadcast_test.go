package fl

import (
	"errors"
	"math"
	"math/big"
	"slices"
	"testing"

	"flbooster/internal/batch"
	"flbooster/internal/flnet"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
	"flbooster/internal/quant"
)

// toBig is x as a math/big integer, the oracle's arithmetic.
func toBig(x mpint.Nat) *big.Int { return new(big.Int).SetBytes(x.Bytes()) }

// slotOf is bits [k·width, (k+1)·width) of x.
func slotOf(x *big.Int, k, width int) *big.Int {
	v := new(big.Int).Rsh(x, uint(k*width))
	return v.And(v, new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(width)), big.NewInt(1)))
}

// TestBroadcastCarrySafety: with every residual at 2^r−1, every row's weight
// at the most SumBound admits on one sign side for a sum over the whole batch
// — every row positive, every row negative, and the signs alternating — and
// every mask draw at its least and at its most, the packed residual
// plaintexts, each inner sum, the convolution T and its masked image hold in
// every W-bit slot exactly its integer sum: a cross-term in (−2^63, 2^63)
// lifted by 2^63 and its mask, the target lifted by O = 2^63 into [1, 2^64) —
// so nothing borrowed or carried — and every plaintext, a return ciphertext's
// whole pack of blocks included, below 2^(KeyBits−1) ≤ n. It runs over keys
// of 256–2,048 bits, r of 2–30, batches of 1–64 rows and every stride the rule
// picks for 1–64 features on one or two hosts; and over Hetero NN's shapes,
// where a sample is Hidden rows and a host returns Hidden × dim sums, each
// weighing one unit's rows — every Hidden-th — so that one plaintext's rows
// span units: Hidden 2–4 over batches of 32 and 64 (96, 128 and 256 rows
// among them), dim 1–16 on one or three hosts.
func TestBroadcastCarrySafety(t *testing.T) {
	keys := []int{256, 384, 512, 768, 1024, 1536, 2048}
	if testing.Short() {
		keys = []int{512, 1024, 2048}
	}
	for _, keyBits := range keys {
		plainBits := keyBits - 1
		for rows := 1; rows <= 64; rows++ {
			var shapes [][]int
			for f := 1; f <= 64; f++ {
				shapes = append(shapes, []int{f}, []int{f, 65 - f})
			}
			for _, l := range pickedLayouts(t, plainBits, rows, shapes) {
				for r := 2; r <= 30; r++ {
					checkCarry(t, l, plainBits, rows, r, 1, 0)
				}
			}
		}
	}
	nn := []struct{ units, batch int }{{2, 32}, {3, 32}, {4, 32}, {2, 64}, {3, 64}, {4, 64}}
	widths := []int{2, 9, 14, 22, 30}
	if testing.Short() {
		nn, widths = nn[1:3], []int{14, 30}
	}
	for _, keyBits := range keys {
		plainBits := keyBits - 1
		for _, shape := range nn {
			rows := shape.units * shape.batch
			var shapes [][]int
			for dim := 1; dim <= 16; dim++ {
				k := shape.units * dim
				shapes = append(shapes, []int{k}, []int{k, k, k})
			}
			for _, l := range pickedLayouts(t, plainBits, rows, shapes) {
				for _, r := range widths {
					for u := range shape.units {
						checkCarry(t, l, plainBits, rows, r, shape.units, u)
					}
				}
			}
		}
	}
}

// TestAggregationCarrySafety is the aggregation half of the carry-safety
// property: for every profile Validate accepts over keys of 128–4,096 bits, r
// of 2–52, 1–2^12 parties and batch compression on and off, a full plaintext
// of the context's aggregation layout with every slot at the largest sum
// Parties·(2^r−1) stays below 2^(KeyBits−1) ≤ n and splits back to that sum
// in every slot, checked in math/big. Parties runs over the edges of every
// slot width, 2^b − 1, 2^b and 2^b + 1: the guard is b = ⌈log2 Parties⌉ bits,
// and inside one width the largest sum grows with Parties. Cohort.Size and
// Cohort.Fanout are not axes: whatever the tree's shape, a slot sums the
// uploads of K ≤ Parties contributors, each below 2^r, so no aggregate a
// cohort or a fan-out opens exceeds this fill.
func TestAggregationCarrySafety(t *testing.T) {
	var parties []int
	for b := range 13 {
		for _, n := range []int{1<<b - 1, 1 << b, 1<<b + 1} {
			if n >= 1 && n <= 1<<12 && !slices.Contains(parties, n) {
				parties = append(parties, n)
			}
		}
	}
	checked, exact := 0, 0
	for _, keyBits := range []int{128, 256, 1024, 2048, 4096} {
		for r := uint(2); r <= 52; r++ {
			for _, n := range parties {
				for _, sys := range []System{SystemFLBooster, SystemHAFLO} {
					p := NewProfile(sys, keyBits, n)
					p.RBits = r
					_, pk, err := p.validate()
					if err != nil {
						continue
					}
					l := pk.Layout()
					sum := uint64(n) * (1<<r - 1)
					fail := func(what string, args ...any) {
						t.Helper()
						t.Fatalf("%d-bit key, r = %d, %d parties, batch %t, %d slots of %d bits: "+what,
							append([]any{keyBits, r, n, p.UseBatch(), l.Per(), l.Block()}, args...)...)
					}
					pt := l.Pack(nil, l.Per(), func(int) uint64 { return sum })
					want := new(big.Int)
					for j := range l.Per() {
						want.Add(want, new(big.Int).Lsh(new(big.Int).SetUint64(sum), uint(j*l.Block())))
					}
					total := toBig(pt[0])
					if total.Cmp(want) != 0 {
						fail("the full plaintext is %v, the slots' sums add to %v", total, want)
					}
					if total.BitLen() > keyBits-1 {
						fail("the full plaintext is %d bits, at or above 2^(KeyBits−1)", total.BitLen())
					}
					for j := range l.Per() {
						if got := slotOf(total, j, l.Block()); !got.IsUint64() || got.Uint64() != sum {
							fail("slot %d holds %v, want %d", j, got, sum)
						}
					}
					vals, err := pk.Unpack(pt, l.Per())
					if err != nil || len(vals) != l.Per() || slices.ContainsFunc(vals, func(v uint64) bool { return v != sum }) {
						fail("splits to %v (%v), want %d in every slot", vals, err, sum)
					}
					checked++
					if p.UseBatch() && keyBits%l.Block() == 0 {
						exact++
					}
				}
			}
		}
	}
	t.Logf("%d profiles, %d of them packed with r+b dividing KeyBits, one slot fewer than ⌊KeyBits/(r+b)⌋", checked, exact)
	if exact == 0 {
		t.Fatal("no profile at a slot width dividing KeyBits")
	}
}

// pickedLayouts is the layout of every stride the rule picks for a batch of
// rows under each of the hosts' sum counts in shapes.
func pickedLayouts(t *testing.T, plainBits, rows int, shapes [][]int) map[int]batch.Layout {
	t.Helper()
	picked := map[int]batch.Layout{}
	for _, sums := range shapes {
		s := broadcastStride(plainBits, true, rows, sums)
		if s < 1 || s > maxStride(plainBits, true) {
			t.Fatalf("%d-bit plaintexts, %d rows, sums %v: the rule picked stride %d", plainBits, rows, sums, s)
		}
		l, err := strideLayout(plainBits, s, true)
		if err != nil {
			t.Fatal(err)
		}
		picked[s] = l
	}
	return picked
}

// checkCarry is TestBroadcastCarrySafety's check of one layout, batch size
// and residual width, for a sum that weighs the rows of unit u of units a
// sample (every row at units = 1).
func checkCarry(t *testing.T, l batch.Layout, plainBits, rows, r, units, u int) {
	t.Helper()
	s, w := l.At()/BroadcastSlotBits+1, BroadcastSlotBits
	if s == 1 {
		w = returnSlotBits
	}
	fail := func(what string, args ...any) {
		t.Helper()
		t.Fatalf("%d-bit plaintexts, stride %d, %d rows, r = %d, unit %d of %d: "+what, append([]any{plainBits, s, rows, r, u, units}, args...)...)
	}
	weighed := func(row int) bool { return row < rows && row%units == u }
	qMax := uint64(1)<<r - 1
	weight := (1<<63 - 1) / (qMax * uint64((rows-u+units-1)/units))
	pts := broadcastLayout(s).Pack(nil, rows, func(int) uint64 { return qMax })
	if len(pts) != (rows+s-1)/s {
		fail("%d broadcast plaintexts", len(pts))
	}
	for g, pt := range pts {
		d := toBig(pt)
		if d.BitLen() > (s-1)*w+r {
			fail("residual plaintext %d is %d bits", g, d.BitLen())
		}
		for k := range s {
			want := uint64(0)
			if g*s+k < rows {
				want = qMax
			}
			if got := slotOf(d, k, w); !got.IsUint64() || got.Uint64() != want {
				fail("residual plaintext %d slot %d holds %v, want %d", g, k, got, want)
			}
		}
	}
	offset := new(big.Int).SetUint64(ReturnOffset)
	rho := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), returnSlotBits+maskBits), big.NewInt(1))
	for _, sign := range []struct {
		name string
		neg  func(row int) bool
	}{
		{"positive", func(int) bool { return false }},
		{"negative", func(int) bool { return true }},
		{"alternating", func(row int) bool { return row/units%2 == 1 }},
	} {
		// exact[m] is slot m of T as a signed integer: the pairs (l, k) with
		// k − l = m − (s−1), each over the g where rows g·s+l and g·s+k exist,
		// signed by row g·s+l's weight.
		exact := make([]*big.Int, 2*s-1)
		for m := range exact {
			exact[m] = new(big.Int)
		}
		conv := new(big.Int)
		for lane := range s {
			inner := new(big.Int)
			for g, pt := range pts {
				if weighed(g*s + lane) {
					term := new(big.Int).Mul(new(big.Int).SetUint64(weight), toBig(pt))
					if sign.neg(g*s + lane) {
						term.Neg(term)
					}
					inner.Add(inner, term)
				}
			}
			if inner.BitLen() > (s-1)*w+returnSlotBits {
				fail("%s: inner sum %d is %d bits", sign.name, lane, inner.BitLen())
			}
			for k := range s {
				want := new(big.Int)
				for g := range pts {
					if weighed(g*s+lane) && g*s+k < rows {
						v := new(big.Int).SetUint64(weight * qMax)
						if sign.neg(g*s + lane) {
							v.Neg(v)
						}
						want.Add(want, v)
					}
				}
				exact[k+s-1-lane].Add(exact[k+s-1-lane], want)
			}
			conv.Add(conv, inner.Lsh(inner, uint((s-1-lane)*w)))
		}
		for m, c := range exact {
			if c.CmpAbs(offset) >= 0 {
				fail("%s: T's slot %d is %v, outside (−2^63, 2^63)", sign.name, m, c)
			}
		}
		for _, draw := range []uint64{0, math.MaxUint64} {
			masked := new(big.Int).Add(conv, toBig(crossMask(nil, l, ReturnOffset, func() uint64 { return draw })))
			if masked.Sign() < 0 || masked.BitLen() > l.Block() {
				fail("%s, draws %#x: the masked image is %v, %d bits in a %d-bit block", sign.name, draw, masked.Sign(), masked.BitLen(), l.Block())
			}
			for m, c := range exact {
				want := new(big.Int).Add(c, offset)
				if m != s-1 && draw != 0 {
					want.Add(want, rho)
				}
				if got := slotOf(masked, m, w); got.Cmp(want) != 0 {
					fail("%s, draws %#x: masked slot %d holds %v, want %v", sign.name, draw, m, got, want)
				}
			}
			target := new(big.Int).Add(exact[s-1], offset)
			if target.Sign() <= 0 || !target.IsUint64() {
				fail("%s: the target opens to %v, outside [1, 2^64)", sign.name, target)
			}
			// A return ciphertext's whole pack: per masked images, one a block.
			pack := new(big.Int)
			for b := range l.Per() {
				pack.Add(pack, new(big.Int).Lsh(masked, uint(b*l.Block())))
			}
			if pack.BitLen() > plainBits {
				fail("a pack of %d blocks is %d bits", l.Per(), pack.BitLen())
			}
			vals, err := splitReturn([]mpint.Nat{mpint.FromBytes(pack.Bytes())}, l.Per(), l)
			if err != nil {
				fail("%s: the pack does not split: %v", sign.name, err)
			}
			for b, v := range vals {
				if v != target.Uint64() {
					fail("%s: block %d opens to %d, want %v", sign.name, b, v, target)
				}
			}
		}
	}
}

// openedPlaintexts wraps a context's backend and keeps a copy of every
// plaintext the key holder decrypts, in order: what the arbiter sees. trim
// adds up what the batches it was asked to open saved on the wire against
// CiphertextWireBytes (trimmed).
type openedPlaintexts struct {
	paillier.Backend
	pts  []mpint.Nat
	trim int64
}

func (b *openedPlaintexts) DecryptVec(sk *paillier.PrivateKey, cs []paillier.Ciphertext) ([]mpint.Nat, error) {
	b.trim += trimmed(sk.CiphertextBytes(), cs)
	pts, err := b.Backend.DecryptVec(sk, cs)
	for _, pt := range pts {
		b.pts = append(b.pts, pt.Clone())
	}
	return pts, err
}

// trimmed is what the frame of a batch of ciphertexts ctBytes wide saves
// against CiphertextWireBytes: the batch's width is its widest value's byte
// length (at least 4), so a batch whose every value is below 2^(8·(ctBytes−1))
// is a byte or more narrower a value, and its width's varint may be a byte
// shorter.
func trimmed(ctBytes int, cts []paillier.Ciphertext) int64 {
	w := 4
	for _, c := range cts {
		w = max(w, (c.C.BitLen()+7)/8)
	}
	return int64(flnet.BatchSize(len(cts), ctBytes) - flnet.BatchSize(len(cts), w))
}

// requestHead is a return-path request's header at stride s over count
// values: a minimal uvarint each.
func requestHead(s, count int) int64 {
	return int64(flnet.UvarintLen(uint64(s)) + flnet.UvarintLen(uint64(count)))
}

// returnNet is the transport a return-path test's parties exchange on.
func returnNet(ctx *Context) flnet.Transport {
	return flnet.NewSimTransport(ctx.Link, "host", "arbiter", "guest")
}

// TestBroadcastSumsOpenTheUnpackedSums: at every stride the key admits, on
// every HE substrate, encrypting a broadcast, summing it with signed weights
// and opening the sums yields the integers O + Σ ±x·q(v) the unpacked
// protocol opens — residuals at the quantizer's edges and in between,
// weights up to 20 bits of either sign, an all-negative sum, a sum whose
// terms all sit in one lane of the convolution and a sum with no term at all
// — over the messages the layout budgets. The arbiter's plaintexts hold that
// value in each block's target slot and, above s = 1, in every other slot the
// cross-term lifted by 2^63 plus a mask below 2^(64+λ).
func TestBroadcastSumsOpenTheUnpackedSums(t *testing.T) {
	keys := []int{512, 1024}
	if testing.Short() {
		keys = keys[:1]
	}
	for _, keyBits := range keys {
		for name, ctx := range returnWirings(t, keyBits) {
			host := ctx.NewParty("host")
			arbiter := ctx.NewHolder("arbiter")
			rec := &openedPlaintexts{Backend: ctx.Backend}
			ctx.Backend = rec
			rng := mpint.NewRNG(uint64(keyBits))
			const rows = 23
			alpha := ctx.Quant.Alpha()
			vals := make([]float64, rows)
			for i := range vals {
				vals[i] = (2*rng.Float64() - 1) * alpha
			}
			vals[0], vals[1], vals[2] = alpha, -alpha, 0
			var sums [][]mpint.Term
			for j := 0; j < 7; j++ {
				var terms []mpint.Term
				for i := range rows {
					if rng.Uint64()%3 != 0 {
						terms = append(terms, mpint.Term{Index: i, Weight: rng.Uint64() % (1 << 20), Neg: j == 6 || rng.Uint64()%2 == 0})
					}
				}
				sums = append(sums, terms)
			}
			sums = append(sums, []mpint.Term{{Index: 0, Weight: 9}, {Index: 10, Weight: 1 << 19, Neg: true}}, nil)
			q := func(i int) int64 { return int64(ctx.Quant.Quantize(vals[i])) }
			signed := func(tm mpint.Term) int64 {
				if tm.Neg {
					return -int64(tm.Weight)
				}
				return int64(tm.Weight)
			}
			want := make([]uint64, len(sums))
			bounds := make([]Bound, len(sums))
			for j, sum := range sums {
				var total int64
				var side [2]uint64
				for _, tm := range sum {
					total += signed(tm) * q(tm.Index)
					if tm.Neg {
						side[0] += tm.Weight
					} else {
						side[1] += tm.Weight
					}
				}
				want[j] = uint64(total) + ReturnOffset
				var err error
				if bounds[j], err = ctx.SumBound(side[0], side[1]); err != nil {
					t.Fatal(err)
				}
			}
			route := ReturnRoute{Net: returnNet(ctx), Decryptor: arbiter, Kind: "sums", ReplyKind: "plain"}
			for s := 1; s <= maxStride(ctx.Key.N.BitLen()-1, true); s++ {
				encD, err := host.EncryptBroadcast(vals, s)
				if err != nil {
					t.Fatal(err)
				}
				if len(encD) != (rows+s-1)/s {
					t.Fatalf("%s/%d bits/s = %d: %d broadcast ciphertexts", name, keyBits, s, len(encD))
				}
				cts, err := host.BroadcastSums(encD, sums, s, true)
				if err != nil {
					t.Fatal(err)
				}
				before := ctx.Costs.Snapshot()
				rec.pts, rec.trim = rec.pts[:0], 0
				got, err := host.OpenBroadcastSums(route, cts, bounds, s)
				if err != nil {
					t.Fatalf("%s/%d bits/s = %d: %v", name, keyBits, s, err)
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s/%d bits/s = %d: sum %d opened to %d, want %d", name, keyBits, s, j, got[j], want[j])
					}
				}
				// The request: the header (stride, value count) and the batch, less
				// what the width of the batches the arbiter opened saves.
				l, _ := ctx.layout(s)
				request := flnet.Message{From: "host", To: "arbiter", Kind: "sums"}.WireSize() +
					ctx.CiphertextWireBytes((len(sums)+l.Per()-1)/l.Per()) + requestHead(s, len(sums)) - rec.trim
				reply := flnet.Message{From: "arbiter", To: "host", Kind: "plain"}.WireSize() + int64(8*len(sums))
				after := ctx.Costs.Snapshot()
				if msgs, bytes := after.CommMsgs-before.CommMsgs, after.CommBytes-before.CommBytes; msgs != 2 || bytes != request+reply {
					t.Fatalf("%s/%d bits/s = %d: %d messages of %d bytes, want 2 of %d", name, keyBits, s, msgs, bytes, request+reply)
				}

				// What the arbiter saw, block by block and slot by slot.
				width := returnSlotBits
				if s > 1 {
					width = BroadcastSlotBits
				}
				lift := new(big.Int).SetUint64(ReturnOffset)
				maskBound := new(big.Int).Lsh(big.NewInt(1), returnSlotBits+maskBits)
				for j, sum := range sums {
					block := new(big.Int).Rsh(toBig(rec.pts[j/l.Per()]), uint(j%l.Per()*l.Block()))
					for m := range 2*s - 1 {
						slot := slotOf(block, m, width)
						if m == s-1 {
							if !slot.IsUint64() || slot.Uint64() != want[j] {
								t.Fatalf("%s/%d bits/s = %d: sum %d's target slot holds %v, want %d", name, keyBits, s, j, slot, want[j])
							}
							continue
						}
						// The cross-term: row g·s+l's weight against residual g·s+k,
						// k = l + m − (s−1).
						var cross int64
						for _, tm := range sum {
							if k := tm.Index%s + m - (s - 1); k >= 0 && k < s && tm.Index-tm.Index%s+k < rows {
								cross += signed(tm) * q(tm.Index-tm.Index%s+k)
							}
						}
						rest := new(big.Int).Sub(slot, new(big.Int).Add(big.NewInt(cross), lift))
						if rest.Sign() < 0 || rest.Cmp(maskBound) >= 0 || (rest.Sign() == 0 && sum != nil) {
							t.Fatalf("%s/%d bits/s = %d: sum %d's slot %d holds cross-term %d + 2^63 + %v, want a mask in (0, 2^(64+λ))", name, keyBits, s, j, m, cross, rest)
						}
					}
				}
				ReleaseCiphertexts(cts)
				ReleaseCiphertexts(encD)
			}
		}
	}
}

// TestBroadcastSeeds pins which strides draw nonce seeds where: the sums one
// above s = 1 (their masks', which enter their launch) and none at it — an
// empty inner sum is the identity, not a fresh zero — and the return none.
func TestBroadcastSeeds(t *testing.T) {
	p := testProfile(SystemFLBooster)
	p.KeyBits = 1024
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	host := ctx.NewParty("host")
	arbiter := ctx.NewHolder("arbiter")
	route := ReturnRoute{Net: returnNet(ctx), Decryptor: arbiter, Kind: "sums"}
	vals := []float64{0.1, -0.2, 0.3, -0.4, 0.5, 0.6, -0.7, 0.8, 0.9}
	// Every term in lane 0 of stride 3: two of the three inner sums are empty.
	sums := [][]mpint.Term{{{Index: 0, Weight: 2}, {Index: 3, Weight: 5}, {Index: 6, Weight: 7}}}
	for _, s := range []int{1, 3} {
		encD, err := host.EncryptBroadcast(vals, s)
		if err != nil {
			t.Fatal(err)
		}
		draws := func(fn func()) int {
			start := ctx.nonces.cursor
			fn()
			n := 0
			for probe := start; probe != ctx.nonces.cursor && n < 8; n++ {
				probe = probe*6364136223846793005 + 1442695040888963407
			}
			return n
		}
		var cts = encD
		want := map[int]int{1: 0, 3: 1}[s]
		if n := draws(func() { cts, err = host.BroadcastSums(encD, sums, s, true) }); err != nil || n != want {
			t.Fatalf("s = %d: the sums drew %d seeds, want %d (%v)", s, n, want, err)
		}
		var got []uint64
		bound, err := ctx.SumBound(0, 14)
		if err != nil {
			t.Fatal(err)
		}
		if n := draws(func() { got, err = host.OpenBroadcastSums(route, cts, []Bound{bound}, s) }); err != nil || n != 0 {
			t.Fatalf("s = %d: the return drew %d seeds (%v)", s, n, err)
		}
		q := ctx.Quant.Quantize
		if w := ReturnOffset + 2*q(vals[0]) + 5*q(vals[3]) + 7*q(vals[6]); got[0] != w {
			t.Fatalf("s = %d: opened %d, want %d", s, got[0], w)
		}
	}
	if _, err := host.EncryptBroadcast(vals, 6); !errors.Is(err, ErrSlotCorrupt) {
		t.Fatalf("a stride 1,024-bit plaintexts cannot hold: %v, want ErrSlotCorrupt", err)
	}
	before := ctx.Costs.Snapshot()
	if _, err := host.EncryptBroadcast([]float64{0.1, math.NaN()}, 1); !errors.Is(err, quant.ErrNaN) {
		t.Fatalf("a NaN broadcast value: %v, want quant.ErrNaN", err)
	}
	if after := ctx.Costs.Snapshot(); after.HEOps != before.HEOps {
		t.Fatalf("the refused NaN broadcast was charged: %d HE ops, was %d", after.HEOps, before.HEOps)
	}
}
