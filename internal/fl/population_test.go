package fl

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"flbooster/internal/mpint"
)

func testRoster(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = ClientName(i)
	}
	return names
}

// TestSampleCohortDeterministicSubset pins the cohort sampler's contract:
// the sample is a pure function of (roster, k, seed, round), a true subset
// of the requested size, and comes back in canonical roster order.
func TestSampleCohortDeterministicSubset(t *testing.T) {
	active := testRoster(10)
	a := SampleCohort(active, 4, 7, 3)
	b := SampleCohort(active, 4, 7, 3)
	if !slices.Equal(a, b) {
		t.Fatalf("same inputs sampled different cohorts: %v vs %v", a, b)
	}
	if len(a) != 4 {
		t.Fatalf("cohort size %d, want 4", len(a))
	}
	pos := make(map[string]int, len(active))
	for i, name := range active {
		pos[name] = i
	}
	last := -1
	for _, name := range a {
		p, ok := pos[name]
		if !ok {
			t.Fatalf("cohort member %q not in the roster", name)
		}
		if p <= last {
			t.Fatalf("cohort %v not in canonical roster order", a)
		}
		last = p
	}
}

// TestSampleCohortVariesAcrossRoundsAndSeeds: different rounds (and
// different seeds) must draw different cohorts often enough that the
// scheduler actually rotates clients instead of pinning one subset.
func TestSampleCohortVariesAcrossRoundsAndSeeds(t *testing.T) {
	active := testRoster(12)
	distinct := map[string]bool{}
	for round := uint64(1); round <= 16; round++ {
		distinct[strings.Join(SampleCohort(active, 5, 99, round), ",")] = true
	}
	if len(distinct) < 8 {
		t.Fatalf("16 rounds drew only %d distinct cohorts", len(distinct))
	}
	if slices.Equal(SampleCohort(active, 5, 1, 1), SampleCohort(active, 5, 2, 1)) {
		// Two specific seeds colliding is possible in principle but this pair
		// is fixed, so a collision here means the seed is being ignored.
		t.Fatal("seed does not influence the sample")
	}
}

// TestSampleCohortDegenerateSizes: k ≤ 0 and k ≥ N schedule the whole
// roster, and the returned slice is a copy the caller may keep.
func TestSampleCohortDegenerateSizes(t *testing.T) {
	active := testRoster(5)
	for _, k := range []int{0, -1, 5, 9} {
		got := SampleCohort(active, k, 3, 1)
		if !slices.Equal(got, active) {
			t.Fatalf("k=%d: got %v, want the full roster", k, got)
		}
		got[0] = "mutated"
		if active[0] != ClientName(0) {
			t.Fatal("sample aliases the roster slice")
		}
		active[0] = ClientName(0)
	}
}

// sampleCohortByName is the sampler as it shuffled names — a copy of the
// roster under the same draws, sorted back through a name → position map —
// kept as the oracle of the one that shuffles positions.
func sampleCohortByName(active []string, k int, seed, round uint64) []string {
	if k <= 0 || k >= len(active) {
		return append([]string(nil), active...)
	}
	pos := make(map[string]int, len(active))
	for i, m := range active {
		pos[m] = i
	}
	pool := append([]string(nil), active...)
	rng := mpint.NewRNG(seed ^ round*0x9E3779B97F4A7C15 ^ cohortSeedSalt)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	cohort := pool[:k]
	sort.Slice(cohort, func(a, b int) bool { return pos[cohort[a]] < pos[cohort[b]] })
	return cohort
}

// TestSampleCohortEqualsTheNameShuffle: the cohort is the one the sampler drew
// while it shuffled names, member for member, over 1,200 (n, k, seed, round)
// tuples — k = 1, k = n−1, k ≥ n and k ≤ 0 among them, rosters of 1 to 2,048 —
// so every journaled cohort replays and every golden round keeps its members.
func TestSampleCohortEqualsTheNameShuffle(t *testing.T) {
	r := mpint.NewRNG(0xC0407)
	tuples := 0
	for _, n := range []int{1, 2, 3, 7, 64, 257, 2048} {
		active := testRoster(n)
		ks := []int{-1, 0, 1, n - 1, n, n + 3}
		for len(ks) < 12 {
			ks = append(ks, 1+r.Intn(n))
		}
		for _, k := range ks {
			for draw := 0; draw < 15; draw++ {
				seed, round := r.Uint64(), r.Uint64()%1000
				if got, want := SampleCohort(active, k, seed, round), sampleCohortByName(active, k, seed, round); !slices.Equal(got, want) {
					t.Fatalf("n=%d k=%d seed=%d round=%d:\n got %v\nwant %v", n, k, seed, round, got, want)
				}
				tuples++
			}
		}
	}
	if tuples < 1000 {
		t.Fatalf("only %d tuples compared", tuples)
	}
}

func TestCohortPolicyValidate(t *testing.T) {
	good := []CohortPolicy{
		{},
		{Size: 3},
		{Fanout: 2},
		{Size: 4, Fanout: 8, MaxInflight: 2},
	}
	for _, cp := range good {
		if err := cp.Validate(4); err != nil {
			t.Errorf("%+v: unexpected error %v", cp, err)
		}
	}
	bad := []CohortPolicy{
		{Size: -1},
		{Size: 5},
		{Fanout: -2},
		{Fanout: 1},
		{MaxInflight: -1},
	}
	for _, cp := range bad {
		if err := cp.Validate(4); err == nil {
			t.Errorf("%+v validated against 4 parties", cp)
		}
	}
	if (CohortPolicy{}).Enabled() {
		t.Fatal("zero policy must mean the flat protocol")
	}
	if !(CohortPolicy{Size: 2}).Sampling() || !(CohortPolicy{Fanout: 2}).Tree() {
		t.Fatal("policy togglers broken")
	}
}

// TestProfileRejectsQuorumAboveCohort: a quorum the sampled cohort can never
// satisfy must be a configuration error, not a round that fails forever.
func TestProfileRejectsQuorumAboveCohort(t *testing.T) {
	p := testProfile(SystemFATE)
	p.Cohort = CohortPolicy{Size: 2}
	p.Round.Quorum = 3
	if err := p.Validate(); err == nil {
		t.Fatal("quorum 3 over a 2-client cohort validated")
	}
	p.Round.Quorum = 2
	if err := p.Validate(); err != nil {
		t.Fatalf("quorum == cohort size should validate: %v", err)
	}
}
