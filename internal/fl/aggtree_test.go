package fl

import (
	"bytes"
	"testing"

	"flbooster/internal/flnet"
	"flbooster/internal/paillier"
)

// encryptBatches encrypts n distinct gradient batches of the given width.
func encryptBatches(t *testing.T, ctx *Context, n, width int) [][]paillier.Ciphertext {
	t.Helper()
	out := make([][]paillier.Ciphertext, n)
	host := ctx.NewParty("host")
	for i := range out {
		g := make([]float64, width)
		for j := range g {
			g[j] = 0.01*float64(i+1) + 0.001*float64(j)
		}
		cts, err := host.EncryptGradients(g)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = cts
	}
	return out
}

// leftFold is the reference the tree is held to: batch 0 plus each next one,
// one charged addition at a time.
func leftFold(t *testing.T, ctx *Context, batches [][]paillier.Ciphertext) []paillier.Ciphertext {
	t.Helper()
	acc := batches[0]
	for _, b := range batches[1:] {
		sum, _, err := ctx.addCiphertexts(acc, b)
		if err != nil {
			t.Fatal(err)
		}
		acc = sum
	}
	return acc
}

// TestAggTreeRootMatchesFlatFold is the tree's correctness bar: for any
// leaf count around the fanout boundaries, the tree's root must be
// byte-identical to the flat left-fold over the same batches.
func TestAggTreeRootMatchesFlatFold(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	for _, leaves := range []int{1, 2, 3, 4, 8, 9, 10, 13} {
		batches := encryptBatches(t, ctx, leaves, 6)
		flat := leftFold(t, ctx, batches)
		tree, err := ctx.NewAggTree(3)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			if err := tree.Add(b); err != nil {
				t.Fatal(err)
			}
		}
		root, err := tree.Root()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeCiphertexts(root), encodeCiphertexts(flat)) {
			t.Fatalf("%d leaves: tree root diverged from the flat fold", leaves)
		}
		st := tree.Stats()
		if st.Leaves != leaves || st.Fanout != 3 {
			t.Fatalf("%d leaves: stats %+v", leaves, st)
		}
	}
}

// TestAggTreeAdoptsByCopy: a level copies its first child rather than
// aliasing it, and two trees never mix. Every
// batch is released, its limbs zeroed, as soon as its tree has it, the way a
// round releases each upload; the roots must not notice.
func TestAggTreeAdoptsByCopy(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	batches := encryptBatches(t, ctx, 3, 6)
	sumA := leftFold(t, ctx, batches[:2])
	want := [][]byte{encodeCiphertexts(sumA), encodeCiphertexts(batches[2])}
	trees := make([]*AggTree, 2)
	for g := range trees {
		if trees[g], err = ctx.NewAggTree(0); err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range batches {
		if err := trees[i/2].Add(b); err != nil {
			t.Fatal(err)
		}
		paillier.ReleaseBatch(b)
	}
	for g, tree := range trees {
		root, err := tree.Root()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeCiphertexts(root), want[g]) {
			t.Fatalf("tree %d's root is not the sum of its own batches", g)
		}
	}
}

// TestAggTreePeakBoundedByFanoutDepth pins the memory claim the refactor
// exists for: the high-water live-ciphertext count is bounded by one
// running partial per level plus the batch in flight — (depth+1)·width —
// and stays far below leaves·width, what holding every batch would take.
func TestAggTreePeakBoundedByFanoutDepth(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	const leaves, width = 27, 4
	batches := encryptBatches(t, ctx, leaves, width)
	wctx := len(batches[0]) // ciphertexts per batch after packing
	tree, err := ctx.NewAggTree(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := tree.Add(b); err != nil {
			t.Fatal(err)
		}
		if live := tree.live; live > int64((tree.Stats().Depth+1)*wctx) {
			t.Fatalf("live %d exceeds the level bound", live)
		}
	}
	if _, err := tree.Root(); err != nil {
		t.Fatal(err)
	}
	st := tree.Stats()
	if st.PeakLiveCts > int64((st.Depth+1)*wctx) {
		t.Fatalf("peak %d exceeds (depth+1)·width = %d", st.PeakLiveCts, (st.Depth+1)*wctx)
	}
	if st.PeakLiveCts >= int64(leaves*wctx) {
		t.Fatalf("peak %d not sublinear in %d leaves", st.PeakLiveCts, leaves)
	}
	if st.Depth < 3 || st.Forwards == 0 || st.Folds == 0 {
		t.Fatalf("27 leaves at fanout 3 should cascade: %+v", st)
	}
	if len(st.LevelSimNs) != st.Depth {
		t.Fatalf("level times %v for depth %d", st.LevelSimNs, st.Depth)
	}
}

// frameTally counts the frames a transport carries and their WireSize.
type frameTally struct {
	flnet.Transport
	frames, bytes int64
}

func (f *frameTally) Send(msg flnet.Message) error {
	f.frames++
	f.bytes += msg.WireSize()
	return f.Transport.Send(msg)
}

// TestAggTreeInteriorTrafficIsItsFrames: a bounded tree's interior traffic is
// the frames it sends on its context's tree transport, each charged once by
// Context.deliver at its WireSize — one message a forward, the root's final
// hop included, and the frames' bytes — and the parent computes on its
// decoded copy, so the root is still the flat fold's.
func TestAggTreeInteriorTrafficIsItsFrames(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFLBooster))
	if err != nil {
		t.Fatal(err)
	}
	tally := &frameTally{Transport: ctx.tree}
	ctx.tree = tally
	batches := encryptBatches(t, ctx, 13, 6)
	flat := leftFold(t, ctx, batches)
	before := ctx.Costs.Snapshot()
	tree, err := ctx.NewAggTree(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := tree.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	root, err := tree.Root()
	if err != nil {
		t.Fatal(err)
	}
	st, after := tree.Stats(), ctx.Costs.Snapshot()
	if st.Depth < 3 {
		t.Fatalf("13 leaves at fan-out 3 used %d levels, want at least 3", st.Depth)
	}
	if msgs := after.CommMsgs - before.CommMsgs; msgs != st.Forwards || tally.frames != st.Forwards {
		t.Errorf("%d messages charged and %d frames sent for %d forwards", msgs, tally.frames, st.Forwards)
	}
	if b := after.CommBytes - before.CommBytes; b != tally.bytes {
		t.Errorf("%d bytes charged, the frames' WireSize is %d", b, tally.bytes)
	}
	if !bytes.Equal(encodeCiphertexts(root), encodeCiphertexts(flat)) {
		t.Fatal("the root of decoded forwards diverged from the flat fold")
	}
}

func TestAggTreeValidation(t *testing.T) {
	ctx, err := NewContext(testProfile(SystemFATE))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.NewAggTree(1); err == nil {
		t.Fatal("fanout 1 accepted")
	}
	tree, err := ctx.NewAggTree(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Add(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := tree.Root(); err == nil {
		t.Fatal("root of an empty tree succeeded")
	}
	batches := encryptBatches(t, ctx, 2, 3)
	if err := tree.Add(batches[0]); err != nil {
		t.Fatal(err)
	}
	if err := tree.Add(batches[1][:2]); err == nil {
		t.Fatal("width mismatch accepted")
	}
}
