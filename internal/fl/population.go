package fl

import (
	"fmt"
	"slices"

	"flbooster/internal/mpint"
)

// Cross-device population scheduling. A production federation registers far
// more clients than any one round can carry: each round seeded-samples a
// cohort of K participants from the N active clients and runs the protocol
// over the cohort alone, scaling the aggregate by N/K exactly as quorum
// rounds already do. Sampling is keyed by (seed, round), so a crash-recovered
// re-run of a round draws the identical cohort from the identical roster —
// the property journal recovery's bit-exactness depends on.

// CohortPolicy configures cross-device scale: how many clients a round
// schedules out of the active population, how the cohort's uploads are
// aggregated, and how many uploads may be in flight at once. Every value
// runs the same round path; the zero value is the flat all-parties round,
// byte-identical to the pre-cohort protocol.
type CohortPolicy struct {
	// Size is K, the number of clients sampled per round; 0 (or a value at
	// or above the active roster size) schedules every active client.
	Size int
	// Fanout, when ≥ 2, aggregates the cohort through a hierarchical tree of
	// that fan-out: interior aggregators HE-sum their children and forward
	// one partial each, a frame charged on the wire. 0 is the unbounded
	// fan-out, the flat round: the coordinator folds every upload into one
	// running sum. Either way each upload is folded as it arrives (AggTree).
	Fanout int
	// MaxInflight bounds how many client uploads a round admits at once
	// (backpressure): the next wave is not asked to upload until the current
	// wave resolved. 0 admits the whole cohort as one wave.
	MaxInflight int
}

// Sampling reports whether the policy samples a sub-population cohort.
func (cp CohortPolicy) Sampling() bool { return cp.Size > 0 }

// Tree reports whether the policy aggregates through a hierarchy.
func (cp CohortPolicy) Tree() bool { return cp.Fanout > 0 }

// Enabled reports whether the policy changes the round at all.
func (cp CohortPolicy) Enabled() bool { return cp.Sampling() || cp.Tree() }

// Validate reports configuration errors for a population of `parties`.
func (cp CohortPolicy) Validate(parties int) error {
	switch {
	case cp.Size < 0:
		return fmt.Errorf("fl: negative cohort size %d", cp.Size)
	case cp.Size > parties:
		return fmt.Errorf("fl: cohort size %d exceeds %d parties", cp.Size, parties)
	case cp.Fanout < 0:
		return fmt.Errorf("fl: negative aggregation fan-out %d", cp.Fanout)
	case cp.Fanout == 1:
		return fmt.Errorf("fl: aggregation fan-out must be ≥ 2 (or 0 for flat)")
	case cp.MaxInflight < 0:
		return fmt.Errorf("fl: negative in-flight upload bound %d", cp.MaxInflight)
	}
	return nil
}

// cohortSeedSalt salts the cohort sampler's RNG stream off the bare
// (seed, round) mix. Its value fixes every sampled cohort: changing it
// reshuffles every seeded round's schedule.
const cohortSeedSalt = 0xc0407

// SampleCohort seeded-samples k of the active clients for one round,
// returned in canonical (roster) order. It is a pure function of
// (active, k, seed, round): the coordinator, a crash-recovered re-run over
// the journal-restored roster, and any oracle all derive the identical
// cohort. k ≤ 0 or k ≥ len(active) schedules everyone.
func SampleCohort(active []string, k int, seed, round uint64) []string {
	cohort, _ := sampleCohort(active, k, seed, round, nil)
	return cohort
}

// sampleCohort is SampleCohort drawing its positions in pool, grown as
// needed and returned for the caller's next draw.
func sampleCohort(active []string, k int, seed, round uint64, pool []int32) ([]string, []int32) {
	if k <= 0 || k >= len(active) {
		return append([]string(nil), active...), pool
	}
	// Partial Fisher–Yates over roster positions: the first k slots of the
	// shuffle are a uniform k-subset without paying for the full permutation,
	// and positions sort back into roster order without a name → position map.
	pool = slices.Grow(pool[:0], len(active))[:len(active)]
	for i := range pool {
		pool[i] = int32(i)
	}
	rng := mpint.NewRNG(seed ^ round*0x9E3779B97F4A7C15 ^ cohortSeedSalt)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	slices.Sort(pool[:k])
	cohort := make([]string, k)
	for i, p := range pool[:k] {
		cohort[i] = active[p]
	}
	return cohort, pool
}
