package fl

import (
	"fmt"
	"math"
	"sort"

	"flbooster/internal/mpint"
)

// Group-wise robust aggregation. Secure aggregation hides individual
// updates, so classical robust statistics (which need per-client vectors)
// cannot run directly. Instead the K reporting clients are partitioned into
// G seeded groups, each group is HE-summed exactly as before, and only the
// G group sums are ever decrypted. A pluggable combiner then merges the
// group means robustly, suppressing outlier groups. Privacy degrades only
// to group granularity (the server/decryptor learns G sub-aggregates, never
// an individual update when groups hold ≥2 clients); robustness holds as
// long as the number of groups containing a Byzantine client stays within
// the combiner's breakdown point.

// CombinerKind names a robust group-combiner.
type CombinerKind string

// The combiners, all implementing Aggregator.
const (
	// CombineFedAvg: the size-weighted mean of the group means — exactly
	// FedAvg, no robustness. The honest baseline behind the same interface.
	CombineFedAvg CombinerKind = "fedavg"
	// CombineTrimmedMean: per coordinate, drop the Trim highest and Trim
	// lowest group values and average the rest.
	CombineTrimmedMean CombinerKind = "trimmed-mean"
	// CombineMedian: the coordinate-wise median of the group means.
	CombineMedian CombinerKind = "median"
	// CombineNormClip: scale every group mean whose L2 norm exceeds the
	// bound down onto the ball, then take the size-weighted mean. With
	// ClipNorm 0 the bound is the median group norm.
	CombineNormClip CombinerKind = "norm-clip"
	// CombineKrum: Krum-style group selection — score each group by the sum
	// of its squared distances to its closest peers, drop the Trim
	// highest-scored groups, and average the survivors.
	CombineKrum CombinerKind = "krum"
)

// KnownCombiners lists the combiners in reporting order.
func KnownCombiners() []CombinerKind {
	return []CombinerKind{CombineFedAvg, CombineTrimmedMean, CombineMedian, CombineNormClip, CombineKrum}
}

func knownCombiner(k CombinerKind) bool {
	for _, c := range KnownCombiners() {
		if c == k {
			return true
		}
	}
	return false
}

// DefensePolicy configures group-wise robust aggregation. The zero value
// disables it (plain single-aggregate rounds, byte-identical to the
// pre-defense protocol).
type DefensePolicy struct {
	// Groups is G, the number of secure-aggregation groups; values above 1
	// enable the defense. G is clamped to the number of reporting clients.
	Groups int
	// Combiner selects the robust combiner (default trimmed-mean).
	Combiner CombinerKind
	// Trim is the number of groups trimmed per side (trimmed-mean) or
	// dropped outright (krum); default 1. It is clamped so at least one
	// group always survives.
	Trim int
	// ClipNorm is the norm-clip L2 bound; 0 derives it per round as the
	// median group-mean norm.
	ClipNorm float64
}

// Enabled reports whether the policy arms the defense.
func (d DefensePolicy) Enabled() bool { return d.Groups > 1 }

// Validate reports configuration errors.
func (d DefensePolicy) Validate() error {
	switch {
	case d.Groups < 0:
		return fmt.Errorf("fl: negative defense group count %d", d.Groups)
	case d.Trim < 0:
		return fmt.Errorf("fl: negative defense trim %d", d.Trim)
	case !(d.ClipNorm >= 0) || math.IsInf(d.ClipNorm, 1):
		return fmt.Errorf("fl: defense clip norm must be finite and non-negative, got %v", d.ClipNorm)
	}
	if d.Enabled() && d.Combiner != "" && !knownCombiner(d.Combiner) {
		return fmt.Errorf("fl: unknown defense combiner %q", d.Combiner)
	}
	return nil
}

// EffectiveTrim resolves the trim count for G groups: at most Trim (default
// 1), clamped so trimming leaves at least one group.
func (d DefensePolicy) EffectiveTrim(groups int) int {
	t := d.Trim
	if t == 0 {
		t = 1
	}
	if max := (groups - 1) / 2; t > max {
		t = max
	}
	if t < 0 {
		t = 0
	}
	return t
}

// NewAggregator builds the policy's combiner.
func (d DefensePolicy) NewAggregator() (Aggregator, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	kind := d.Combiner
	if kind == "" {
		kind = CombineTrimmedMean
	}
	switch kind {
	case CombineFedAvg:
		return FedAvg{}, nil
	case CombineTrimmedMean:
		return TrimmedMean{Trim: d.Trim}, nil
	case CombineMedian:
		return Median{}, nil
	case CombineNormClip:
		return NormClip{Bound: d.ClipNorm}, nil
	case CombineKrum:
		return Krum{Drop: d.Trim}, nil
	}
	return nil, fmt.Errorf("fl: unknown defense combiner %q", kind)
}

// GroupUpdate is one decrypted group sub-aggregate, presented to combiners
// as the group's mean update with its contributor count.
type GroupUpdate struct {
	// Mean is the group's mean gradient vector (group sum / Size).
	Mean []float64
	// Size is the number of clients securely aggregated into this group.
	Size int
}

// CombineStats describes what a combiner suppressed.
type CombineStats struct {
	// TrimmedCoords counts coordinate slots discarded by per-coordinate
	// trimming (trimmed-mean: 2·t·dim).
	TrimmedCoords int64 `json:"trimmed_coords,omitempty"`
	// GroupsDropped counts groups excluded wholesale (krum).
	GroupsDropped int `json:"groups_dropped,omitempty"`
	// Clipped counts groups whose norm was clipped (norm-clip).
	Clipped int `json:"clipped,omitempty"`
	// Suspicion is a per-group outlier score in combiner-specific units:
	// trim participation for trimmed-mean/median, norm/bound for norm-clip,
	// the Krum score for krum, zero for fedavg. Higher is more suspect.
	Suspicion []float64 `json:"suspicion,omitempty"`
}

// Aggregator combines decrypted group updates into one robust mean
// estimate. Implementations must be pure functions of their inputs so every
// decrypting client reaches the identical result.
type Aggregator interface {
	// Name identifies the combiner in reports and metrics.
	Name() string
	// Combine returns the robust mean update over the groups.
	Combine(groups []GroupUpdate) ([]float64, CombineStats, error)
}

// validateGroups rejects the malformed inputs every combiner shares.
func validateGroups(groups []GroupUpdate) (dim int, err error) {
	if len(groups) == 0 {
		return 0, fmt.Errorf("fl: combine with no groups")
	}
	dim = len(groups[0].Mean)
	for g, gu := range groups {
		if gu.Size < 1 {
			return 0, fmt.Errorf("fl: group %d has size %d", g, gu.Size)
		}
		if len(gu.Mean) != dim {
			return 0, fmt.Errorf("fl: group %d has %d coordinates, want %d", g, len(gu.Mean), dim)
		}
	}
	return dim, nil
}

// FedAvg is the non-robust baseline: the size-weighted mean of the group
// means, i.e. exactly the all-client mean.
type FedAvg struct{}

// Name implements Aggregator.
func (FedAvg) Name() string { return string(CombineFedAvg) }

// Combine implements Aggregator.
func (FedAvg) Combine(groups []GroupUpdate) ([]float64, CombineStats, error) {
	dim, err := validateGroups(groups)
	if err != nil {
		return nil, CombineStats{}, err
	}
	out := make([]float64, dim)
	total := 0
	for _, gu := range groups {
		total += gu.Size
		for i, v := range gu.Mean {
			out[i] += float64(gu.Size) * v
		}
	}
	for i := range out {
		out[i] /= float64(total)
	}
	return out, CombineStats{Suspicion: make([]float64, len(groups))}, nil
}

// TrimmedMean is the coordinate-wise trimmed mean over group means: per
// coordinate the Trim lowest and Trim highest group values are discarded
// and the rest averaged (unweighted — groups are near-equal sized by
// construction). With at most Trim Byzantine groups, every output
// coordinate provably lies within the range of the honest groups' values.
type TrimmedMean struct {
	// Trim is the per-side trim count (0 means 1), clamped so at least one
	// group survives.
	Trim int
}

// Name implements Aggregator.
func (t TrimmedMean) Name() string { return string(CombineTrimmedMean) }

// Combine implements Aggregator.
func (t TrimmedMean) Combine(groups []GroupUpdate) ([]float64, CombineStats, error) {
	dim, err := validateGroups(groups)
	if err != nil {
		return nil, CombineStats{}, err
	}
	trim := DefensePolicy{Trim: t.Trim}.EffectiveTrim(len(groups))
	out := make([]float64, dim)
	stats := CombineStats{Suspicion: make([]float64, len(groups))}
	type coord struct {
		v float64
		g int
	}
	col := make([]coord, len(groups))
	for i := 0; i < dim; i++ {
		for g, gu := range groups {
			col[g] = coord{gu.Mean[i], g}
		}
		// Deterministic order: by value, group index breaking ties.
		sort.Slice(col, func(a, b int) bool {
			if col[a].v != col[b].v {
				return col[a].v < col[b].v
			}
			return col[a].g < col[b].g
		})
		var sum float64
		for k := trim; k < len(col)-trim; k++ {
			sum += col[k].v
		}
		out[i] = sum / float64(len(col)-2*trim)
		for k := 0; k < trim; k++ {
			stats.Suspicion[col[k].g]++
			stats.Suspicion[col[len(col)-1-k].g]++
		}
	}
	stats.TrimmedCoords = int64(2*trim) * int64(dim)
	// Normalize suspicion to the fraction of coordinates a group was
	// trimmed on.
	if dim > 0 {
		for g := range stats.Suspicion {
			stats.Suspicion[g] /= float64(dim)
		}
	}
	return out, stats, nil
}

// Median is the coordinate-wise median of the group means (the trimmed mean
// at maximal trim; breakdown point just under half the groups).
type Median struct{}

// Name implements Aggregator.
func (Median) Name() string { return string(CombineMedian) }

// Combine implements Aggregator.
func (Median) Combine(groups []GroupUpdate) ([]float64, CombineStats, error) {
	dim, err := validateGroups(groups)
	if err != nil {
		return nil, CombineStats{}, err
	}
	out := make([]float64, dim)
	stats := CombineStats{Suspicion: make([]float64, len(groups))}
	col := make([]float64, len(groups))
	for i := 0; i < dim; i++ {
		for g, gu := range groups {
			col[g] = gu.Mean[i]
		}
		sort.Float64s(col)
		mid := len(col) / 2
		if len(col)%2 == 1 {
			out[i] = col[mid]
		} else {
			out[i] = (col[mid-1] + col[mid]) / 2
		}
	}
	// Suspicion: distance of each group's mean from the median vector,
	// normalized by the largest (pure reporting; the median needs no drop
	// decision).
	var maxd float64
	for g, gu := range groups {
		stats.Suspicion[g] = l2dist(gu.Mean, out)
		if stats.Suspicion[g] > maxd {
			maxd = stats.Suspicion[g]
		}
	}
	if maxd > 0 {
		for g := range stats.Suspicion {
			stats.Suspicion[g] /= maxd
		}
	}
	return out, stats, nil
}

// NormClip scales every group mean whose L2 norm exceeds the bound down
// onto the ball of that radius, then takes the size-weighted mean — the
// defense of choice against boosting/scaling attacks.
type NormClip struct {
	// Bound is the L2 radius; 0 derives it per call as the median group
	// norm (robust as long as most groups are honest).
	Bound float64
}

// Name implements Aggregator.
func (n NormClip) Name() string { return string(CombineNormClip) }

// Combine implements Aggregator.
func (n NormClip) Combine(groups []GroupUpdate) ([]float64, CombineStats, error) {
	dim, err := validateGroups(groups)
	if err != nil {
		return nil, CombineStats{}, err
	}
	norms := make([]float64, len(groups))
	for g, gu := range groups {
		norms[g] = l2norm(gu.Mean)
	}
	bound := n.Bound
	if bound == 0 {
		sorted := append([]float64(nil), norms...)
		sort.Float64s(sorted)
		mid := len(sorted) / 2
		if len(sorted)%2 == 1 {
			bound = sorted[mid]
		} else {
			bound = (sorted[mid-1] + sorted[mid]) / 2
		}
	}
	stats := CombineStats{Suspicion: make([]float64, len(groups))}
	out := make([]float64, dim)
	total := 0
	for g, gu := range groups {
		scale := 1.0
		if bound > 0 && norms[g] > bound {
			scale = bound / norms[g]
			stats.Clipped++
		}
		if bound > 0 {
			stats.Suspicion[g] = norms[g] / bound
		}
		total += gu.Size
		for i, v := range gu.Mean {
			out[i] += float64(gu.Size) * scale * v
		}
	}
	for i := range out {
		out[i] /= float64(total)
	}
	return out, stats, nil
}

// Krum scores each group by the sum of squared L2 distances to its
// G−Drop−2 nearest peers (the groups a Byzantine cohort cannot all be) and
// averages the G−Drop lowest-scored groups, size-weighted — multi-Krum at
// group granularity.
type Krum struct {
	// Drop is how many highest-scored groups are excluded (0 means 1),
	// clamped so at least one group survives.
	Drop int
}

// Name implements Aggregator.
func (k Krum) Name() string { return string(CombineKrum) }

// Combine implements Aggregator.
func (k Krum) Combine(groups []GroupUpdate) ([]float64, CombineStats, error) {
	dim, err := validateGroups(groups)
	if err != nil {
		return nil, CombineStats{}, err
	}
	drop := DefensePolicy{Trim: k.Drop}.EffectiveTrim(len(groups))
	stats := CombineStats{Suspicion: make([]float64, len(groups))}
	// Pairwise squared distances; score = sum over the closest
	// len(groups)-drop-2 peers (at least one).
	neighbours := len(groups) - drop - 2
	if neighbours < 1 {
		neighbours = 1
	}
	if neighbours > len(groups)-1 {
		neighbours = len(groups) - 1
	}
	dists := make([]float64, len(groups))
	for g, gu := range groups {
		dists = dists[:0]
		for h, hu := range groups {
			if h == g {
				continue
			}
			d := l2dist(gu.Mean, hu.Mean)
			dists = append(dists, d*d)
		}
		sort.Float64s(dists)
		var score float64
		for i := 0; i < neighbours && i < len(dists); i++ {
			score += dists[i]
		}
		stats.Suspicion[g] = score
	}
	// Keep the len(groups)-drop lowest-scored groups; ties break on group
	// index so selection is deterministic.
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ga, gb := order[a], order[b]
		if stats.Suspicion[ga] != stats.Suspicion[gb] {
			return stats.Suspicion[ga] < stats.Suspicion[gb]
		}
		return ga < gb
	})
	keep := order[:len(groups)-drop]
	sort.Ints(keep)
	stats.GroupsDropped = drop
	out := make([]float64, dim)
	total := 0
	for _, g := range keep {
		gu := groups[g]
		total += gu.Size
		for i, v := range gu.Mean {
			out[i] += float64(gu.Size) * v
		}
	}
	for i := range out {
		out[i] /= float64(total)
	}
	return out, stats, nil
}

func l2norm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func l2dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// AssignGroups partitions members into at most `groups` seeded near-equal
// groups: a seeded shuffle dealt round-robin, each group then restored to
// the members' original (canonical) order. The assignment is a pure
// function of (seed, round, members, groups), so the coordinator, every
// decrypting client, crash-recovered re-runs, and plaintext oracles all
// derive the identical partition. Groups never come back empty.
func AssignGroups(members []string, groups int, seed, round uint64) [][]string {
	g := groups
	if g > len(members) {
		g = len(members)
	}
	if g < 1 {
		g = 1
	}
	pos := make(map[string]int, len(members))
	for i, m := range members {
		pos[m] = i
	}
	shuffled := append([]string(nil), members...)
	rng := mpint.NewRNG(seed ^ round*0x9E3779B97F4A7C15 ^ 0x6a0f)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	out := make([][]string, g)
	for i, m := range shuffled {
		out[i%g] = append(out[i%g], m)
	}
	for _, grp := range out {
		sort.Slice(grp, func(a, b int) bool { return pos[grp[a]] < pos[grp[b]] })
	}
	return out
}

// DefenseReport records one defended round's group anatomy for
// RoundReport, soak oracles, and the byz experiment.
type DefenseReport struct {
	// Combiner names the aggregator that merged the groups.
	Combiner string `json:"combiner"`
	// Groups is the effective group count (after clamping to the reporting
	// client count); GroupSizes and GroupMembers describe the partition.
	Groups       int        `json:"groups"`
	GroupSizes   []int      `json:"group_sizes"`
	GroupMembers [][]string `json:"group_members,omitempty"`
	// Stats is what the combiner suppressed.
	Stats CombineStats `json:"stats"`
}

// MaxSuspicion returns the highest per-group suspicion score (0 when none).
func (d *DefenseReport) MaxSuspicion() float64 {
	if d == nil {
		return 0
	}
	var max float64
	for _, s := range d.Stats.Suspicion {
		if s > max {
			max = s
		}
	}
	return max
}
