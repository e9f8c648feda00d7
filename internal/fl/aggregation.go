package fl

import (
	"encoding/binary"
	"errors"
	"fmt"

	"flbooster/internal/paillier"
)

// Aggregation is the one place that decides how a round's uploads become
// the broadcast payload: one AggTree × the wire framing, with openAggregate
// its inverse. A flat round is a tree of unbounded fan-out. The Coordinator
// seals with it and the Client opens with openAggregate, whichever host runs
// them, so the simulator and the deployment aggregate and decrypt through the
// same code.
//
// One policy bit, derived from Cohort.Fanout, survives inside it. A
// buffered round (Fanout == 0) holds completed uploads until Seal and only
// then feeds the tree, in canonical order; a streamed round (Fanout ≥ 2)
// folds each upload the moment it is delivered. HE addition is commutative
// and the backend deterministic, so the two modes' roots are bit-exact.
type Aggregation struct {
	ctx    *Context
	cohort []string // the round's scheduled clients, canonical order

	tree *AggTree                         // built on the first fold
	held map[string][]paillier.Ciphertext // buffered rounds: uploads awaiting Seal

	stats TreeStats // the sealed tree's anatomy
	// peak is the aggregator's high-water count of simultaneously live
	// ciphertexts: every held batch for a buffered round, the tree's
	// fanout·depth-bounded peak for a streamed one.
	peak int64
}

// frameError marks an aggregate copy that failed to parse or contradicts the
// round's contributor count: the copy is bad, not the round, so a decryptor
// drops it and tries the next one. Every other openAggregate error is fatal
// to the round.
type frameError struct{ error }

func (e *frameError) Unwrap() error { return e.error }

// NewAggregation builds the aggregation of one round over its scheduled
// cohort (canonical order), under the context's Cohort.Fanout.
func (c *Context) NewAggregation(cohort []string) *Aggregation {
	return &Aggregation{ctx: c, cohort: cohort}
}

func (a *Aggregation) streamed() bool { return a.ctx.Profile.Cohort.Tree() }

// AggregateKind is the message kind an aggregate frame travels under. The
// frame starts with the contributor count K (see Aggregation.Seal).
const AggregateKind = "agg"

// Add delivers one cohort member's completed upload and takes ownership of
// cts. A streamed round folds it into the tree at once; a buffered round
// holds it until Seal. Fold order is arrival order, not canonical order —
// HE addition is commutative and the backend deterministic, so the root is
// byte-identical regardless.
func (a *Aggregation) Add(name string, cts []paillier.Ciphertext) error {
	if !a.streamed() {
		if a.held == nil {
			a.held = make(map[string][]paillier.Ciphertext, len(a.cohort))
		}
		a.held[name] = cts
		return nil
	}
	return a.fold(cts)
}

func (a *Aggregation) fold(cts []paillier.Ciphertext) error {
	if a.tree == nil {
		tree, err := a.ctx.NewAggTree(a.ctx.Profile.Cohort.Fanout)
		if err != nil {
			return err
		}
		a.tree = tree
	}
	if err := a.tree.Add(cts); err != nil {
		return err
	}
	// The tree's level copied or summed the batch: the slice is dead.
	ReleaseCiphertexts(cts)
	return nil
}

// Seal closes the round over the clients whose uploads were delivered
// (canonical order) and returns the aggregate frame every recipient is sent:
// the contributor count K as a little-endian uint32, then the sealed payload
// (framePayload) — the tree flushed to its root, a bare ciphertext vector.
func (a *Aggregation) Seal(included []string) ([]byte, error) {
	if len(included) == 0 {
		return nil, fmt.Errorf("fl: no uploads to aggregate")
	}
	if !a.streamed() {
		// The buffered round holds every delivered batch live at once — the
		// O(K·width) baseline the streamed tree exists to beat.
		for _, name := range included {
			cts := a.held[name]
			delete(a.held, name)
			a.peak += int64(len(cts))
			if err := a.fold(cts); err != nil {
				return nil, err
			}
		}
	}
	root, err := a.tree.Root()
	if err != nil {
		return nil, err
	}
	a.stats = a.tree.Stats()
	if a.stats.PeakLiveCts > a.peak {
		a.peak = a.stats.PeakLiveCts
	}
	// The root dies framed: the frame is bytes of its own.
	room := 4 + int(a.ctx.CiphertextWireBytes(len(root)))
	frame := appendCiphertexts(newAggFrame(len(included), room), root)
	ReleaseCiphertexts(root)
	return frame, nil
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

// openAggregate is Seal's inverse at a decrypting client: it reads K off the
// frame, decrypts the sum of K contributions and returns the full-federation
// estimate of `count` gradient values, scaled by Parties/K, with K.
//
// K is checked before anything is decrypted: it must lie in [1, Parties],
// and a decryptor that knows who contributed passes included and rejects a
// frame whose K is not len(included). A remote one that only has the frame
// passes nil.
func (c *Context) openAggregate(frame []byte, count int, included []string) ([]float64, int, error) {
	reject := func(format string, args ...any) ([]float64, int, error) {
		return nil, 0, &frameError{fmt.Errorf(format, args...)}
	}
	if len(frame) < 4 {
		return reject("fl: aggregate frame of %d bytes has no contributor count", len(frame))
	}
	k := int(binary.LittleEndian.Uint32(frame))
	if k < 1 || k > c.Profile.Parties {
		return reject("fl: aggregate frame claims %d contributors of %d parties", k, c.Profile.Parties)
	}
	if included != nil && len(included) != k {
		return reject("fl: frame claims %d contributors, round included %d", k, len(included))
	}
	cts, err := DecodeCiphertexts(framePayload(frame))
	if err != nil {
		return reject("%w", err)
	}
	sums, err := c.DecryptAggregated(cts, count, k)
	if err != nil {
		return nil, 0, err
	}
	ReleaseCiphertexts(cts)
	if k < c.Profile.Parties {
		scale := float64(c.Profile.Parties) / float64(k)
		for i := range sums {
			sums[i] *= scale
		}
	}
	return sums, k, nil
}

// isFrameError reports whether err rejects one aggregate copy rather than
// the round.
func isFrameError(err error) bool {
	var fe *frameError
	return errors.As(err, &fe)
}
