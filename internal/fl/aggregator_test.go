package fl

import (
	"math"
	"sort"
	"testing"
)

func approx(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDefensePolicyValidation(t *testing.T) {
	good := []DefensePolicy{
		{},
		{Groups: 3},
		{Groups: 5, Combiner: CombineKrum, Trim: 2},
		{Groups: 4, Combiner: CombineNormClip, ClipNorm: 1.5},
	}
	for i, d := range good {
		if err := d.Validate(); err != nil {
			t.Errorf("policy %d should validate: %v", i, err)
		}
	}
	bad := []DefensePolicy{
		{Groups: -1},
		{Groups: 3, Trim: -1},
		{Groups: 3, ClipNorm: -1},
		{Groups: 3, ClipNorm: math.NaN()}, // NaN would make NormClip never clip
		{Groups: 3, ClipNorm: math.Inf(1)},
		{Groups: 3, ClipNorm: math.Inf(-1)},
		{Groups: 3, Combiner: "bogus"},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("policy %d should fail: %+v", i, d)
		}
	}
	if (DefensePolicy{Groups: 1}).Enabled() {
		t.Error("one group is not a defense")
	}
	if !(DefensePolicy{Groups: 2}).Enabled() {
		t.Error("two groups arm the defense")
	}
}

func TestEffectiveTrim(t *testing.T) {
	cases := []struct {
		trim, groups, want int
	}{
		{0, 5, 1},  // default
		{2, 5, 2},  // fits
		{3, 5, 2},  // clamped: (5-1)/2
		{1, 2, 0},  // cannot trim below one survivor
		{10, 3, 1}, // clamped: (3-1)/2
	}
	for _, c := range cases {
		if got := (DefensePolicy{Trim: c.trim}).EffectiveTrim(c.groups); got != c.want {
			t.Errorf("EffectiveTrim(trim=%d, groups=%d) = %d, want %d", c.trim, c.groups, got, c.want)
		}
	}
}

func TestNewAggregatorFactory(t *testing.T) {
	for _, kind := range KnownCombiners() {
		agg, err := (DefensePolicy{Groups: 3, Combiner: kind}).NewAggregator()
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if agg.Name() != string(kind) {
			t.Errorf("combiner %q reports name %q", kind, agg.Name())
		}
	}
	agg, err := (DefensePolicy{Groups: 3}).NewAggregator()
	if err != nil {
		t.Fatal(err)
	}
	if agg.Name() != string(CombineTrimmedMean) {
		t.Errorf("default combiner = %q, want trimmed-mean", agg.Name())
	}
}

func TestFedAvgIsWeightedMean(t *testing.T) {
	groups := []GroupUpdate{
		{Mean: []float64{1, 10}, Size: 3},
		{Mean: []float64{4, -2}, Size: 1},
	}
	out, stats, err := FedAvg{}.Combine(groups)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{(3*1 + 4) / 4.0, (3*10 - 2) / 4.0}
	for i := range want {
		if !approx(out[i], want[i], 1e-12) {
			t.Fatalf("fedavg[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	if len(stats.Suspicion) != 2 {
		t.Error("fedavg should report (zero) suspicion per group")
	}
}

func TestTrimmedMeanSuppressesOutlierWithinHonestRange(t *testing.T) {
	honest := [][]float64{{0.1, -0.2}, {0.12, -0.18}, {0.09, -0.22}, {0.11, -0.19}}
	groups := make([]GroupUpdate, 0, 5)
	for _, m := range honest {
		groups = append(groups, GroupUpdate{Mean: m, Size: 2})
	}
	groups = append(groups, GroupUpdate{Mean: []float64{100, -100}, Size: 2})

	out, stats, err := TrimmedMean{Trim: 1}.Combine(groups)
	if err != nil {
		t.Fatal(err)
	}
	// The provable bound: with ≤ Trim Byzantine groups every output
	// coordinate lies within the honest groups' range.
	for i := range out {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, m := range honest {
			lo, hi = math.Min(lo, m[i]), math.Max(hi, m[i])
		}
		if out[i] < lo || out[i] > hi {
			t.Fatalf("trimmed-mean[%d] = %v outside honest range [%v, %v]", i, out[i], lo, hi)
		}
	}
	if stats.TrimmedCoords != 2*1*2 {
		t.Errorf("TrimmedCoords = %d, want 4", stats.TrimmedCoords)
	}
	// The outlier group must carry the highest suspicion.
	maxg := 0
	for g, s := range stats.Suspicion {
		if s > stats.Suspicion[maxg] {
			maxg = g
		}
	}
	if maxg != 4 {
		t.Errorf("most suspect group = %d, want the outlier 4", maxg)
	}
}

func TestMedianCombiner(t *testing.T) {
	groups := []GroupUpdate{
		{Mean: []float64{1}, Size: 1},
		{Mean: []float64{2}, Size: 1},
		{Mean: []float64{900}, Size: 1},
	}
	out, _, err := Median{}.Combine(groups)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 {
		t.Fatalf("median = %v, want 2", out[0])
	}
	groups = groups[:2]
	out, _, err = Median{}.Combine(groups)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 1.5 {
		t.Fatalf("even median = %v, want 1.5", out[0])
	}
}

func TestNormClipBoundsBoostedGroup(t *testing.T) {
	groups := []GroupUpdate{
		{Mean: []float64{0.3, 0.4}, Size: 1}, // norm 0.5
		{Mean: []float64{0.4, 0.3}, Size: 1}, // norm 0.5
		{Mean: []float64{30, 40}, Size: 1},   // norm 50: boosted
	}
	out, stats, err := NormClip{}.Combine(groups)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Clipped != 1 {
		t.Fatalf("Clipped = %d, want 1", stats.Clipped)
	}
	// With the median bound (0.5) the clipped group contributes at most a
	// norm-0.5 vector, so the mean's norm is at most 0.5.
	if n := l2norm(out); n > 0.5+1e-12 {
		t.Fatalf("clipped mean norm = %v, want ≤ 0.5", n)
	}
	if stats.Suspicion[2] <= stats.Suspicion[0] {
		t.Error("boosted group should be most suspect")
	}
	// An explicit bound is honoured.
	_, stats, err = NormClip{Bound: 100}.Combine(groups)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Clipped != 0 {
		t.Error("bound 100 should clip nothing")
	}
}

func TestKrumDropsFarthestGroup(t *testing.T) {
	groups := []GroupUpdate{
		{Mean: []float64{0.1, 0.1}, Size: 1},
		{Mean: []float64{0.11, 0.09}, Size: 1},
		{Mean: []float64{0.09, 0.1}, Size: 1},
		{Mean: []float64{50, -50}, Size: 1},
	}
	out, stats, err := Krum{Drop: 1}.Combine(groups)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GroupsDropped != 1 {
		t.Fatalf("GroupsDropped = %d, want 1", stats.GroupsDropped)
	}
	// The survivors' average stays near the honest cluster.
	if math.Abs(out[0]-0.1) > 0.02 || math.Abs(out[1]-0.1) > 0.12 {
		t.Fatalf("krum output %v strayed from the honest cluster", out)
	}
	maxg := 0
	for g, s := range stats.Suspicion {
		if s > stats.Suspicion[maxg] {
			maxg = g
		}
	}
	if maxg != 3 {
		t.Errorf("highest Krum score on group %d, want 3", maxg)
	}
}

func TestCombinersRejectMalformedGroups(t *testing.T) {
	combiners := []Aggregator{FedAvg{}, TrimmedMean{}, Median{}, NormClip{}, Krum{}}
	bad := [][]GroupUpdate{
		nil,
		{{Mean: []float64{1}, Size: 0}},
		{{Mean: []float64{1}, Size: 1}, {Mean: []float64{1, 2}, Size: 1}},
	}
	for _, agg := range combiners {
		for i, groups := range bad {
			if _, _, err := agg.Combine(groups); err == nil {
				t.Errorf("%s: malformed input %d should fail", agg.Name(), i)
			}
		}
	}
}

func TestAssignGroupsProperties(t *testing.T) {
	members := make([]string, 10)
	for i := range members {
		members[i] = ClientName(i)
	}
	g1 := AssignGroups(members, 4, 7, 3)
	g2 := AssignGroups(members, 4, 7, 3)
	if len(g1) != 4 {
		t.Fatalf("got %d groups, want 4", len(g1))
	}
	// Deterministic: same (seed, round, members) → same partition.
	for g := range g1 {
		if len(g1[g]) != len(g2[g]) {
			t.Fatal("assignment not deterministic")
		}
		for i := range g1[g] {
			if g1[g][i] != g2[g][i] {
				t.Fatal("assignment not deterministic")
			}
		}
	}
	// Exact partition: every member exactly once, no empty groups.
	seen := map[string]int{}
	for _, grp := range g1 {
		if len(grp) == 0 {
			t.Fatal("empty group")
		}
		for _, m := range grp {
			seen[m]++
		}
		// Canonical order within a group.
		if !sort.SliceIsSorted(grp, func(a, b int) bool {
			var x, y int
			for i, m := range members {
				if m == grp[a] {
					x = i
				}
				if m == grp[b] {
					y = i
				}
			}
			return x < y
		}) {
			t.Fatal("group not in canonical member order")
		}
	}
	if len(seen) != len(members) {
		t.Fatalf("partition covers %d members, want %d", len(seen), len(members))
	}
	for m, n := range seen {
		if n != 1 {
			t.Fatalf("member %s appears %d times", m, n)
		}
	}
	// Near-equal sizes from round-robin dealing.
	for _, grp := range g1 {
		if len(grp) < 2 || len(grp) > 3 {
			t.Fatalf("10 members over 4 groups should give sizes 2–3, got %d", len(grp))
		}
	}
	// Different rounds (generically) shuffle differently.
	g3 := AssignGroups(members, 4, 7, 4)
	diff := false
	for g := range g1 {
		for i := range g1[g] {
			if i >= len(g3[g]) || g1[g][i] != g3[g][i] {
				diff = true
			}
		}
	}
	if !diff {
		t.Error("round should perturb the assignment")
	}
	// G clamps to the member count; tiny rosters still get non-empty groups.
	small := AssignGroups(members[:2], 5, 1, 1)
	if len(small) != 2 {
		t.Fatalf("G must clamp to member count, got %d groups", len(small))
	}
}

func TestDefenseReportMaxSuspicion(t *testing.T) {
	var nilRep *DefenseReport
	if nilRep.MaxSuspicion() != 0 {
		t.Error("nil report suspicion should be 0")
	}
	rep := &DefenseReport{Stats: CombineStats{Suspicion: []float64{0.2, 0.9, 0.1}}}
	if rep.MaxSuspicion() != 0.9 {
		t.Errorf("MaxSuspicion = %v, want 0.9", rep.MaxSuspicion())
	}
}
