package fl

import (
	"slices"
	"testing"
	"time"

	"flbooster/internal/flnet"
	"flbooster/internal/gpu"
)

// cohortProfile returns a 9-party test profile; mutate Cohort per case.
func cohortProfile(sys System) Profile {
	p := NewProfile(sys, 128, 9)
	p.Device = gpu.SmallTestDevice()
	p.RBits = 14
	return p
}

// runEpochDigests runs `rounds` rounds on a journaled federation and returns
// the decrypted sums plus the journaled per-round aggregate digests.
func runEpochDigests(t *testing.T, p Profile, rounds int) ([][]float64, map[uint64]uint64, []RoundReport) {
	t.Helper()
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	store := NewMemStore()
	fed.AttachJournal(mustJournal(t, store))
	grads := epochGrads(rounds, p.Parties, 6)
	sums := make([][]float64, rounds)
	reps := make([]RoundReport, rounds)
	for r := 0; r < rounds; r++ {
		sum, rep, err := fed.SecureAggregateReport(grads[r])
		if err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
		sums[r], reps[r] = sum, rep
	}
	recs, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	state, err := Replay(recs)
	if err != nil {
		t.Fatal(err)
	}
	return sums, state.Digests, reps
}

// TestTreeRoundBitExactWithFlat is the round runtime's acceptance bar: for
// the same profile and seed, every delivery topology — a tree, a
// tree whose fan-out covers the whole cohort, a flat round admitted in
// bounded waves — must journal byte-identical aggregates and decrypt
// bit-identical sums to the flat single-wave protocol.
func TestTreeRoundBitExactWithFlat(t *testing.T) {
	const rounds = 3
	cases := []struct {
		name string
		prep func(*Profile)
	}{
		{"plain", func(p *Profile) {}},
		{"sampled", func(p *Profile) { p.Cohort.Size = 6 }},
	}
	topologies := []struct {
		name                string
		fanout, maxInflight int
	}{
		{"tree", 3, 4},
		{"tree-fanout-covers-cohort", 16, 0},
		{"flat-window1", 0, 1},
		{"flat-window3", 0, 3},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			flatP := cohortProfile(SystemFLBooster)
			c.prep(&flatP)
			flatSums, flatDigests, flatReps := runEpochDigests(t, flatP, rounds)
			for _, topo := range topologies {
				// Every run shares the case's Cohort.Size — only the delivery
				// topology and the admission window differ from the reference.
				p := flatP
				p.Cohort.Fanout = topo.fanout
				p.Cohort.MaxInflight = topo.maxInflight
				sums, digests, reps := runEpochDigests(t, p, rounds)
				for r := 0; r < rounds; r++ {
					if !sameBits(flatSums[r], sums[r]) {
						t.Fatalf("%s round %d sums diverged\nflat %v\ngot  %v", topo.name, r+1, flatSums[r], sums[r])
					}
					if flatDigests[uint64(r+1)] != digests[uint64(r+1)] {
						t.Fatalf("%s round %d journaled digests diverged: %#x vs %#x",
							topo.name, r+1, flatDigests[uint64(r+1)], digests[uint64(r+1)])
					}
					if !slices.Equal(flatReps[r].Included, reps[r].Included) {
						t.Fatalf("%s round %d included sets diverged: %v vs %v",
							topo.name, r+1, flatReps[r].Included, reps[r].Included)
					}
					if (reps[r].Tree != nil) != (topo.fanout > 0) || flatReps[r].Tree != nil {
						t.Fatalf("%s round %d tree stats on the wrong mode", topo.name, r+1)
					}
				}
			}
		})
	}
}

// TestTreeRoundBoundsLiveCiphertexts: a round folds each upload as it
// arrives, so the report's live-ciphertext high-water mark does not grow with
// the cohort: exactly 2·width for a flat round — the running sum and the
// upload being folded — and at most (depth+1)·width for a tree round, a
// partial a level and the batch being folded.
func TestTreeRoundBoundsLiveCiphertexts(t *testing.T) {
	flatP := cohortProfile(SystemFLBooster)
	treeP := flatP
	treeP.Cohort.Fanout = 3

	grads := epochGrads(1, flatP.Parties, 6)[0]
	var width int64
	run := func(p Profile) RoundReport {
		ctx, err := NewContext(p)
		if err != nil {
			t.Fatal(err)
		}
		width = int64(ctx.PlaintextCount(len(grads[0])))
		fed := NewFederation(ctx)
		defer fed.Close()
		_, rep, err := fed.SecureAggregateReport(grads)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	flat := run(flatP)
	tree := run(treeP)
	if flat.PeakLiveCts != 2*width {
		t.Fatalf("flat peak %d, want 2·width = %d", flat.PeakLiveCts, 2*width)
	}
	if tree.Tree == nil || tree.Tree.Leaves != flatP.Parties || tree.Tree.Depth < 2 {
		t.Fatalf("tree stats %+v", tree.Tree)
	}
	if bound := int64(tree.Tree.Depth+1) * width; tree.PeakLiveCts == 0 || tree.PeakLiveCts > bound {
		t.Fatalf("tree peak %d, want in (0, (depth+1)·width = %d]", tree.PeakLiveCts, bound)
	}
	if flat.CohortSize != flatP.Parties || tree.CohortSize != flatP.Parties {
		t.Fatalf("cohort sizes %d/%d", flat.CohortSize, tree.CohortSize)
	}
}

// TestSampledCohortSchedulesSubset: with Cohort.Size < N only the sampled
// clients contribute, the aggregate is scaled to the full-federation
// estimate, and successive rounds rotate the cohort.
func TestSampledCohortSchedulesSubset(t *testing.T) {
	p := cohortProfile(SystemFLBooster)
	p.Cohort = CohortPolicy{Size: 5, Fanout: 2}
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	grads := epochGrads(2, p.Parties, 4)
	var firstCohort []string
	for r := 0; r < 2; r++ {
		sum, rep, err := fed.SecureAggregateReport(grads[r])
		if err != nil {
			t.Fatalf("round %d: %v", r+1, err)
		}
		if rep.CohortSize != 5 || len(rep.Included) != 5 {
			t.Fatalf("round %d scheduled %d/%d clients", r+1, len(rep.Included), rep.CohortSize)
		}
		if rep.Scale < 1.79 || rep.Scale > 1.81 {
			t.Fatalf("round %d scale %v, want 9/5", r+1, rep.Scale)
		}
		if len(sum) != 4 {
			t.Fatalf("round %d sum has %d dims", r+1, len(sum))
		}
		if r == 0 {
			firstCohort = rep.Included
		} else if slices.Equal(firstCohort, rep.Included) {
			t.Log("rounds 1 and 2 drew the same cohort (possible but unlikely)")
		}
	}
}

// uploadDropper silently discards the victim's upload frame, so the server
// never hears from a client whose send succeeded.
type uploadDropper struct {
	flnet.Transport
	victim string
}

func (d *uploadDropper) Send(msg flnet.Message) error {
	if msg.From == d.victim && msg.Kind == "grads" {
		return nil // vanishes on the wire
	}
	return d.Transport.Send(msg)
}

// TestTreeRoundSurvivesDroppedUpload: a client whose upload is silently
// dropped mid-wave is cut off at the wave deadline and the quorum round
// completes with the scaled estimate over a tree that folded one
// contribution fewer — the tree-mode mirror of the flat straggler test.
func TestTreeRoundSurvivesDroppedUpload(t *testing.T) {
	p := cohortProfile(SystemFATE)
	p.Cohort = CohortPolicy{Fanout: 3, MaxInflight: 4}
	p.Round = RoundPolicy{
		Quorum:       8,
		PhaseTimeout: 200 * time.Millisecond,
		MaxRetries:   1,
	}
	ctx, err := NewContext(p)
	if err != nil {
		t.Fatal(err)
	}
	fed := NewFederation(ctx)
	defer fed.Close()
	fed.Transport = &uploadDropper{Transport: fed.Transport, victim: ClientName(2)}

	grads := make([][]float64, p.Parties)
	for i := range grads {
		grads[i] = []float64{0.1, -0.2}
	}
	sum, rep, err := fed.SecureAggregateReport(grads)
	if err != nil {
		t.Fatalf("tree quorum round should survive one dropped upload: %v", err)
	}
	if len(rep.Included) != p.Parties-1 {
		t.Fatalf("included %v", rep.Included)
	}
	if phase, ok := rep.Dropped[ClientName(2)]; !ok || phase != PhaseGather {
		t.Fatalf("dropped %v, want client2 lost in gather", rep.Dropped)
	}
	if rep.Tree == nil || rep.Tree.Leaves != p.Parties-1 {
		t.Fatalf("tree stats %+v, want %d leaves folded", rep.Tree, p.Parties-1)
	}
	bound := float64(p.Parties) * rep.Scale * ctx.Quant.MaxError()
	want := []float64{0.1 * float64(p.Parties), -0.2 * float64(p.Parties)}
	for i := range want {
		if d := sum[i] - want[i]; d > bound || d < -bound {
			t.Fatalf("sum[%d] = %v, want %v ± %v", i, sum[i], want[i], bound)
		}
	}
}
