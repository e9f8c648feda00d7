package fl

import (
	"fmt"
	"time"

	"flbooster/internal/paillier"
)

// AggTree is the one fold behind every round: cohort uploads are folded
// leaf-by-leaf into fan-out-bounded levels, each holding its running sum as a
// pooled ciphertext batch. When a level has absorbed `fanout` children it
// emits one partial (its homomorphic sum), forwards it up a level, and
// resets — so at any instant each level holds at most one running partial
// and the live ciphertext set is bounded by (depth+1)·width, not by the
// cohort size. Homomorphic addition is
// commutative and associative and the backend's AddVec is deterministic, so
// the tree's root is bit-identical to the flat left-fold over the same
// batches regardless of fold order or association.
//
// A fan-out of 0 is unbounded: one level that never fills, i.e. the flat
// left-fold — how a flat (Cohort.Fanout == 0) round aggregates, and the
// vertical models' secure sums. It is the repository's one ciphertext fold:
// Round.Gather folds each upload into its round's tree as it arrives.
//
// Every fold into a non-empty level is one charged homomorphic addition on
// the context (Context.addCiphertexts); every partial forwarded up a level of
// a bounded tree is a frame sent on the context's tree transport, charged at
// its WireSize like every other message (flush).
type AggTree struct {
	ctx    *Context
	fanout int

	levels   []*treeLevel
	levelSim []time.Duration

	leaves   int
	folds    int64 // HE additions (folds into a non-empty level)
	forwards int64
	live     int64 // ciphertexts currently held across all levels
	peak     int64
}

// treeLevel is one level's running partial, a pooled batch of the tree's own
// (nil while the level is empty), and how many children it has absorbed since
// it last emitted.
type treeLevel struct {
	sum  []paillier.Ciphertext
	kids int
}

// TreeStats describes one completed tree aggregation.
type TreeStats struct {
	// Fanout is the configured fan-out; Depth the number of levels the
	// aggregation actually used; Leaves the client batches folded in.
	Fanout int `json:"fanout"`
	Depth  int `json:"depth"`
	Leaves int `json:"leaves"`
	// Folds counts HE additions; Forwards counts partials that moved up a
	// level (the root's final hop to the coordinator included).
	Folds    int64 `json:"folds"`
	Forwards int64 `json:"forwards"`
	// PeakLiveCts is the high-water count of ciphertexts simultaneously live
	// in the tree (level partials plus the batch being folded).
	PeakLiveCts int64 `json:"peak_live_cts"`
	// LevelSimNs is the modelled HE time spent folding at each level.
	LevelSimNs []int64 `json:"level_sim_ns,omitempty"`
}

// Add folds one client's ciphertext batch into the tree, cascading partials
// up through any levels the fold fills.
func (t *AggTree) Add(cts []paillier.Ciphertext) error {
	if len(cts) == 0 {
		return fmt.Errorf("fl: aggregate an empty batch")
	}
	t.leaves++
	return t.addAt(0, cts)
}

func (t *AggTree) addAt(level int, cts []paillier.Ciphertext) error {
	for len(t.levels) <= level {
		t.levels = append(t.levels, &treeLevel{})
		t.levelSim = append(t.levelSim, 0)
	}
	lv := t.levels[level]
	// The incoming batch is live while it folds; folding into a non-empty
	// level momentarily holds both it and the running partial.
	if cand := t.live + int64(len(cts)); cand > t.peak {
		t.peak = cand
	}
	if lv.kids == 0 {
		lv.sum = copyBatch(cts)
		t.live += int64(len(cts))
	} else if err := t.fold(level, cts); err != nil {
		return err
	}
	lv.kids++
	if t.fanout == 0 || lv.kids < t.fanout {
		return nil
	}
	return t.emit(level)
}

// fold adds cts into a non-empty level's running sum through the context's
// charged homomorphic addition; the sum it replaces goes back to the pool,
// and cts stays its caller's.
func (t *AggTree) fold(level int, cts []paillier.Ciphertext) error {
	lv := t.levels[level]
	sum, sim, err := t.ctx.addCiphertexts(lv.sum, cts)
	if err != nil {
		return err
	}
	paillier.ReleaseBatch(lv.sum)
	lv.sum = sum
	t.levelSim[level] += sim
	t.folds++
	return nil
}

// copyBatch adopts a level's first child by copying its limbs into a pooled
// batch, never by aliasing them: the child is released once folded.
func copyBatch(cts []paillier.Ciphertext) []paillier.Ciphertext {
	out := paillier.DrawBatch(len(cts))
	for i, c := range cts {
		out[i].C = append(out[i].C, c.C...)
	}
	return out
}

// emit flushes one level's partial up a level. The level above copied or
// summed it, so it dies there.
func (t *AggTree) emit(level int) error {
	partial, err := t.flush(level)
	if err != nil {
		return err
	}
	err = t.addAt(level+1, partial)
	paillier.ReleaseBatch(partial)
	return err
}

// A bounded tree's interior hop on its context's tree transport: a level's
// partial goes from a kid to the node above it.
const treeKid, treeNode, treeKind = "kid", "node", "sum"

// flush takes a level's partial, resets the level, and forwards it. On a
// bounded tree the partial is framed and sent up on the context's tree
// transport (Context.SendCiphertexts, charged by deliver at the frame's
// WireSize); the sender's batch dies once framed, and flush returns the
// parent's decoded copy. An unbounded tree (fanout 0) lives at the
// coordinator, so its root has no link to cross: it is returned as it is and
// charges nothing. Either way the batch returned is the caller's to release.
func (t *AggTree) flush(level int) ([]paillier.Ciphertext, error) {
	lv := t.levels[level]
	partial := lv.sum
	lv.sum, lv.kids = nil, 0
	t.live -= int64(len(partial))
	t.forwards++
	if t.fanout == 0 {
		return partial, nil
	}
	t.ctx.metricAdd("tree_partials", 1)
	got, err := t.ctx.SendCiphertexts(t.ctx.tree, treeKid, treeNode, treeKind, partial)
	paillier.ReleaseBatch(partial)
	return got, err
}

// Root flushes every partially filled level bottom-up and returns the tree's
// homomorphic sum. The final partial's forward is the root reaching the
// coordinator. The tree is spent afterwards, and the root, a level's batch,
// is the caller's to release.
func (t *AggTree) Root() ([]paillier.Ciphertext, error) {
	var carry []paillier.Ciphertext
	for level := 0; level < len(t.levels); level++ {
		lv := t.levels[level]
		if lv.kids == 0 {
			continue // the carry passes an empty level untouched
		}
		if carry != nil {
			if cand := t.live + int64(len(carry)); cand > t.peak {
				t.peak = cand
			}
			err := t.fold(level, carry)
			paillier.ReleaseBatch(carry)
			if err != nil {
				return nil, err
			}
		}
		var err error
		if carry, err = t.flush(level); err != nil {
			return nil, err
		}
	}
	if carry == nil {
		return nil, fmt.Errorf("fl: root of an empty aggregation tree")
	}
	return carry, nil
}

// Stats returns the tree's aggregation anatomy.
func (t *AggTree) Stats() TreeStats {
	st := TreeStats{
		Fanout:      t.fanout,
		Depth:       len(t.levels),
		Leaves:      t.leaves,
		Folds:       t.folds,
		Forwards:    t.forwards,
		PeakLiveCts: t.peak,
	}
	if len(t.levelSim) > 0 {
		st.LevelSimNs = make([]int64, len(t.levelSim))
		for i, d := range t.levelSim {
			st.LevelSimNs[i] = int64(d)
		}
	}
	return st
}
