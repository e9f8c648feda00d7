package fl

import (
	"encoding/binary"
	"errors"
	"fmt"

	"flbooster/internal/flnet"
	"flbooster/internal/paillier"
)

// Aggregation is the one place that decides how a round's uploads become
// the broadcast payload and how a payload becomes the decrypted estimate:
// seeded groups × one AggTree per group × the wire framing. An undefended
// round is one group; a flat round is a tree of unbounded fan-out. The
// Coordinator seals with it and the Client opens with it, whichever host runs
// them, so the simulator and the deployment aggregate and decrypt through the
// same code.
//
// One policy bit, derived from Cohort.Fanout, survives inside it. A
// buffered round (Fanout == 0) holds completed uploads until Seal, partitions
// the included set, and only then feeds the trees; a streamed round
// (Fanout ≥ 2) partitions the scheduled cohort up front — a streaming fold
// cannot wait for the final included set — and folds each upload the moment
// it is delivered, so a client dropped mid-round leaves its group one
// contribution lighter instead of reshaping the partition. With zero drops
// the two partitions are the same list, which keeps the modes bit-exact on
// clean rounds.
type Aggregation struct {
	ctx    *Context
	round  uint64
	cohort []string // the round's scheduled clients, canonical order

	groupOf map[string]int                   // member → planted group (nil with one group)
	trees   []*AggTree                       // one per planted group, built on its first fold
	held    map[string][]paillier.Ciphertext // buffered rounds: uploads awaiting Seal

	stats TreeStats // the sealed trees' anatomy, merged across groups
	// peak is the aggregator's high-water count of simultaneously live
	// ciphertexts: every held batch for a buffered round, the trees'
	// fanout·depth-bounded peak for a streamed one.
	peak int64
}

// frameError marks an aggregate copy that failed to parse or contradicts the
// seeded assignment: the copy is bad, not the round, so a decryptor drops it
// and tries the next one. Every other Open error is fatal to the round.
type frameError struct{ error }

func (e *frameError) Unwrap() error { return e.error }

// NewAggregation builds the aggregation of one round over its scheduled
// cohort (canonical order), under the context's Defense policy, Cohort.Fanout
// and Seed.
func (c *Context) NewAggregation(round uint64, cohort []string) *Aggregation {
	return &Aggregation{ctx: c, round: round, cohort: cohort}
}

func (a *Aggregation) streamed() bool { return a.ctx.Profile.Cohort.Tree() }
func (a *Aggregation) defended() bool { return a.ctx.Profile.Defense.Enabled() }

// AggregateKind is the message kind an aggregate frame travels under: a bare
// ciphertext vector as "agg", a grouped frame as flnet.KindGroupAgg. Both
// start with the contributor count K (see Aggregation.Seal).
func (c *Context) AggregateKind() string {
	if c.Profile.Defense.Enabled() {
		return flnet.KindGroupAgg
	}
	return "agg"
}

// groups deals base into the round's seeded groups — one group when the
// round is undefended.
func (a *Aggregation) groups(base []string) [][]string {
	if !a.defended() {
		return [][]string{base}
	}
	p := a.ctx.Profile
	return AssignGroups(base, p.Defense.Groups, p.Seed, a.round)
}

// plant fixes the partition the trees aggregate over.
func (a *Aggregation) plant(base []string) {
	groups := a.groups(base)
	a.trees = make([]*AggTree, len(groups))
	if len(groups) == 1 {
		return
	}
	a.groupOf = make(map[string]int, len(base))
	for g, members := range groups {
		for _, name := range members {
			a.groupOf[name] = g
		}
	}
}

// members re-derives the partition the aggregator built, restricted to the
// clients that contributed and with emptied groups dropped. It is a pure
// function of journaled state — the included members plus the resampled
// cohort, which broadcast-phase recovery cross-checks — so every decryptor,
// crash-recovered ones included, reaches the identical partition.
func (a *Aggregation) members(included []string) [][]string {
	if !a.defended() {
		return [][]string{included}
	}
	if !a.streamed() {
		return a.groups(included)
	}
	in := make(map[string]bool, len(included))
	for _, name := range included {
		in[name] = true
	}
	var members [][]string
	for _, group := range a.groups(a.cohort) {
		var kept []string
		for _, name := range group {
			if in[name] {
				kept = append(kept, name)
			}
		}
		if len(kept) > 0 {
			members = append(members, kept)
		}
	}
	return members
}

// Add delivers one cohort member's completed upload and takes ownership of
// cts. A streamed round folds it into its group's tree at once; a buffered
// round holds it until Seal. Fold order is arrival order, not canonical
// order — HE addition is commutative and the backend deterministic, so the
// roots are byte-identical regardless.
func (a *Aggregation) Add(name string, cts []paillier.Ciphertext) error {
	if !a.streamed() {
		if a.held == nil {
			a.held = make(map[string][]paillier.Ciphertext, len(a.cohort))
		}
		a.held[name] = cts
		return nil
	}
	if a.trees == nil {
		a.plant(a.cohort)
	}
	return a.fold(name, cts)
}

func (a *Aggregation) fold(name string, cts []paillier.Ciphertext) error {
	g := a.groupOf[name]
	if a.trees[g] == nil {
		tree, err := a.ctx.NewAggTree(a.ctx.Profile.Cohort.Fanout)
		if err != nil {
			return err
		}
		a.trees[g] = tree
	}
	if err := a.trees[g].Add(cts); err != nil {
		return err
	}
	// The tree's level copied or summed the batch: the slice is dead.
	ReleaseCiphertexts(cts)
	return nil
}

// Seal closes the round over the clients whose uploads were delivered
// (canonical order) and returns the aggregate frame every recipient is sent:
// the contributor count K as a little-endian uint32, then the sealed payload
// (framePayload) — each non-empty group's tree flushed to its root, a bare
// ciphertext vector when undefended and AppendGroupAgg with the group sizes,
// the round's group metadata, when defended. A group every member of which
// dropped ships no aggregate (the decryptors divide by the group size).
func (a *Aggregation) Seal(included []string) ([]byte, error) {
	if !a.streamed() {
		// The buffered round holds every delivered batch live at once — the
		// O(K·width) baseline the streamed tree exists to beat.
		a.plant(included)
		for _, name := range included {
			cts := a.held[name]
			delete(a.held, name)
			a.peak += int64(len(cts))
			if err := a.fold(name, cts); err != nil {
				return nil, err
			}
		}
	}
	counts := make([]int, len(a.trees))
	for _, name := range included {
		counts[a.groupOf[name]]++
	}
	var sizes []int
	var roots [][]paillier.Ciphertext
	for g, tree := range a.trees {
		if counts[g] == 0 {
			continue
		}
		root, err := tree.Root()
		if err != nil {
			return nil, err
		}
		sizes = append(sizes, counts[g])
		roots = append(roots, root)
		a.stats.merge(tree.Stats())
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("fl: no uploads to aggregate")
	}
	if a.stats.PeakLiveCts > a.peak {
		a.peak = a.stats.PeakLiveCts
	}
	// Each root dies framed: the frame is bytes of its own.
	if !a.defended() {
		room := 4 + int(a.ctx.CiphertextWireBytes(len(roots[0])))
		frame := appendCiphertexts(newAggFrame(len(included), room), roots[0])
		ReleaseCiphertexts(roots[0])
		return frame, nil
	}
	a.ctx.metricAdd("defense_groups", int64(len(sizes)))
	blobs := make([][]byte, len(roots))
	for g, root := range roots {
		blobs[g] = EncodeCiphertexts(root)
		ReleaseCiphertexts(root)
	}
	return flnet.AppendGroupAgg(newAggFrame(len(included), 0), sizes, blobs)
}

// newAggFrame starts an aggregate frame: the K prefix, with room for a
// payload of the given size behind it. The one place K is written — Seal's
// frames and the frame a resumed coordinator rebuilds around its journaled
// payload both start here.
func newAggFrame(k, room int) []byte {
	return binary.LittleEndian.AppendUint32(make([]byte, 0, 4+room), uint32(k))
}

// framePayload is the sealed payload of an aggregate frame: what the journal
// holds and digests. K is not part of it — on replay it is len(Members).
func framePayload(frame []byte) []byte { return frame[4:] }

// Open is Seal's inverse at a decrypting client: it reads K off the frame,
// decrypts each group's sum at its own contributor count — only group sums
// are ever decrypted — and returns the full-federation estimate of `count`
// gradient values with K. An undefended aggregate is scaled by Parties/K; a
// defended one reduces the sums to group means, robust-combines them (a pure
// function of the decrypted groups, so every client reaches the identical
// result) and scales the combined per-client mean by Parties, returning the
// round's DefenseReport alongside.
//
// Everything is checked before anything is decrypted: K must lie in
// [1, Parties] and the groups must cover exactly K clients. A decryptor that
// knows who contributed passes included: it re-derives the seeded partition
// and rejects a frame whose K or group metadata contradicts it, so a
// corrupted frame cannot silently reshape the groups. A remote one that only
// has the frame passes nil and checks coverage alone.
func (a *Aggregation) Open(frame []byte, count int, included []string) ([]float64, int, *DefenseReport, error) {
	ctx := a.ctx
	reject := func(format string, args ...any) ([]float64, int, *DefenseReport, error) {
		return nil, 0, nil, &frameError{fmt.Errorf(format, args...)}
	}
	if len(frame) < 4 {
		return reject("fl: aggregate frame of %d bytes has no contributor count", len(frame))
	}
	k := int(binary.LittleEndian.Uint32(frame))
	if k < 1 || k > ctx.Profile.Parties {
		return reject("fl: aggregate frame claims %d contributors of %d parties", k, ctx.Profile.Parties)
	}
	sizes, blobs := []int{k}, [][]byte{framePayload(frame)}
	if a.defended() {
		var err error
		if sizes, blobs, err = flnet.DecodeGroupAgg(framePayload(frame)); err != nil {
			return reject("%w", err)
		}
	}
	var members [][]string
	if included != nil {
		if len(included) != k {
			return reject("fl: frame claims %d contributors, round included %d", k, len(included))
		}
		members = a.members(included)
		if len(members) != len(sizes) {
			return reject("fl: frame carries %d groups, assignment says %d", len(sizes), len(members))
		}
		for g, m := range members {
			if len(m) != sizes[g] {
				return reject("fl: group %d carries %d contributors, assignment says %d", g, sizes[g], len(m))
			}
		}
	}
	covered := 0
	for _, size := range sizes {
		covered += size
	}
	if covered != k {
		return reject("fl: groups cover %d clients, frame claims %d", covered, k)
	}
	groups := make([]GroupUpdate, len(blobs))
	for g, blob := range blobs {
		cts, err := DecodeCiphertexts(blob)
		if err != nil {
			return reject("group %d: %w", g, err)
		}
		sum, err := ctx.DecryptAggregated(cts, count, sizes[g])
		if err != nil {
			return nil, 0, nil, fmt.Errorf("group %d: %w", g, err)
		}
		ReleaseCiphertexts(cts)
		groups[g] = GroupUpdate{Mean: sum, Size: sizes[g]}
	}
	parties := float64(ctx.Profile.Parties)
	if !a.defended() {
		sums := groups[0].Mean
		if k < ctx.Profile.Parties {
			scale := parties / float64(k)
			for i := range sums {
				sums[i] *= scale
			}
		}
		return sums, k, nil, nil
	}
	for _, gu := range groups {
		for i := range gu.Mean {
			gu.Mean[i] /= float64(gu.Size)
		}
	}
	agg, err := ctx.Profile.Defense.NewAggregator()
	if err != nil {
		return nil, 0, nil, err
	}
	combined, stats, err := agg.Combine(groups)
	if err != nil {
		return nil, 0, nil, err
	}
	for i := range combined {
		combined[i] *= parties
	}
	return combined, k, &DefenseReport{
		Combiner:     agg.Name(),
		Groups:       len(groups),
		GroupSizes:   sizes,
		GroupMembers: members,
		Stats:        stats,
	}, nil
}

// isFrameError reports whether err rejects one aggregate copy rather than
// the round.
func isFrameError(err error) bool {
	var fe *frameError
	return errors.As(err, &fe)
}
