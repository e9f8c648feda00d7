package fl

import (
	"fmt"
	"time"

	"flbooster/internal/paillier"
)

// AggTree is the hierarchical aggregation abstraction behind cross-device
// rounds: cohort uploads are folded leaf-by-leaf into fan-out-bounded
// levels of paillier.Accumulator contexts. When a level has absorbed
// `fanout` children it emits one partial (its homomorphic sum), forwards it
// up a level, and resets — so at any instant each level holds at most one
// running partial and the coordinator's live ciphertext set is bounded by
// fanout·depth, not by the cohort size. Homomorphic addition is commutative
// and associative and the backend's AddVec is deterministic, so the tree's
// root is bit-identical to the flat left-fold over the same batches
// regardless of fold order or association.
//
// A fan-out of 0 is unbounded: one level that never fills, i.e. the flat
// left-fold — how a buffered (Cohort.Fanout == 0) round aggregates.
//
// The tree is pure structure: the cost model plugs in through the fold and
// forward hooks (Context.NewAggTree charges HE time per fold and frames +
// charges each forwarded partial as interior-link traffic).
type AggTree struct {
	fanout  int
	newAcc  func() (*paillier.Accumulator, error)
	fold    func(acc *paillier.Accumulator, cts []paillier.Ciphertext) (time.Duration, error)
	forward func(level int, cts []paillier.Ciphertext)

	levels   []*treeLevel
	levelSim []time.Duration

	leaves   int
	folds    int64 // HE additions (folds into a non-empty accumulator)
	forwards int64
	live     int64 // ciphertexts currently held across all level accumulators
	peak     int64
}

// treeLevel is one level's running partial: the accumulator and how many
// children it has absorbed since it last emitted.
type treeLevel struct {
	acc  *paillier.Accumulator
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

// NewAggTree builds an empty aggregation tree. newAcc constructs one level's
// aggregation context, fold merges a batch into it (returning the modelled
// HE time) — copying or summing it, never keeping it: a partial folded up a
// level is released — and forward (optional) observes each partial leaving a
// level.
func NewAggTree(fanout int, newAcc func() (*paillier.Accumulator, error),
	fold func(acc *paillier.Accumulator, cts []paillier.Ciphertext) (time.Duration, error),
	forward func(level int, cts []paillier.Ciphertext)) (*AggTree, error) {
	if fanout < 0 || fanout == 1 {
		return nil, fmt.Errorf("fl: aggregation fan-out %d must be ≥ 2 (or 0 for unbounded)", fanout)
	}
	if newAcc == nil || fold == nil {
		return nil, fmt.Errorf("fl: NewAggTree needs accumulator and fold hooks")
	}
	return &AggTree{fanout: fanout, newAcc: newAcc, fold: fold, forward: forward}, nil
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
	if lv.acc == nil {
		acc, err := t.newAcc()
		if err != nil {
			return err
		}
		lv.acc = acc
	}
	// The incoming batch is live while it folds; folding into a non-empty
	// accumulator momentarily holds both it and the running partial.
	if cand := t.live + int64(len(cts)); cand > t.peak {
		t.peak = cand
	}
	wasEmpty := lv.kids == 0
	sim, err := t.fold(lv.acc, cts)
	if err != nil {
		return err
	}
	t.levelSim[level] += sim
	lv.kids++
	if wasEmpty {
		t.live += int64(len(cts))
	} else {
		t.folds++
	}
	if t.fanout == 0 || lv.kids < t.fanout {
		return nil
	}
	return t.emit(level)
}

// emit flushes one level's partial up a level. The level above copied or
// summed it, so it dies there.
func (t *AggTree) emit(level int) error {
	partial, err := t.flush(level)
	if err != nil {
		return err
	}
	if err := t.addAt(level+1, partial); err != nil {
		return err
	}
	paillier.ReleaseBatch(partial)
	return nil
}

// flush takes a level's partial, resets the level, and accounts the forward.
func (t *AggTree) flush(level int) ([]paillier.Ciphertext, error) {
	lv := t.levels[level]
	partial, err := lv.acc.Sum()
	if err != nil {
		return nil, err
	}
	lv.acc, lv.kids = nil, 0
	t.live -= int64(len(partial))
	t.forwards++
	if t.forward != nil {
		t.forward(level, partial)
	}
	return partial, nil
}

// Root flushes every partially filled level bottom-up and returns the tree's
// homomorphic sum. The final partial's forward is the root reaching the
// coordinator. The tree is spent afterwards, and the root, an accumulator's
// batch, is the caller's to release.
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
			sim, err := t.fold(lv.acc, carry)
			if err != nil {
				return nil, err
			}
			t.levelSim[level] += sim
			t.folds++
			paillier.ReleaseBatch(carry)
		}
		partial, err := t.flush(level)
		if err != nil {
			return nil, err
		}
		carry = partial
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

// merge folds another tree's stats in (defended rounds run one tree per
// group): depth is the maximum, peaks are summed — the groups' partials are
// live simultaneously, so the sum is the coordinator's conservative
// simultaneous-live bound — and per-level times add level by level.
func (s *TreeStats) merge(o TreeStats) {
	if s.Fanout == 0 {
		s.Fanout = o.Fanout
	}
	if o.Depth > s.Depth {
		s.Depth = o.Depth
	}
	s.Leaves += o.Leaves
	s.Folds += o.Folds
	s.Forwards += o.Forwards
	s.PeakLiveCts += o.PeakLiveCts
	for len(s.LevelSimNs) < len(o.LevelSimNs) {
		s.LevelSimNs = append(s.LevelSimNs, 0)
	}
	for i, ns := range o.LevelSimNs {
		s.LevelSimNs[i] += ns
	}
}
