package fl

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"flbooster/internal/flnet"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

// Schedule is what every party of a round agrees on without a message: the
// round's ID, the live roster and the cohort scheduled to upload — a pure
// function of (profile, roster, round), so the coordinator, each client, a
// crash-recovered re-run over the journal-restored roster and any oracle all
// derive the identical one.
type Schedule struct {
	Round  uint64
	Roster []string // the live clients, canonical order
	Cohort []string // the clients that upload, canonical order: Roster unless sampling narrowed it
}

// Schedule derives round's schedule over the live roster.
func (p Profile) Schedule(roster []string, round uint64) Schedule {
	var pool []int32
	return p.schedule(roster, round, &pool)
}

// schedule is Schedule drawing a sampled cohort's positions in *pool, the
// caller's scratch, grown as needed and kept for its next round.
func (p Profile) schedule(roster []string, round uint64, pool *[]int32) Schedule {
	s := Schedule{Round: round, Roster: roster, Cohort: roster}
	if p.Cohort.Sampling() && p.Cohort.Size < len(roster) {
		s.Cohort, *pool = sampleCohort(roster, p.Cohort.Size, p.Seed, round, *pool)
	}
	return s
}

// Sampled reports whether cohort sampling narrowed the roster.
func (s Schedule) Sampled() bool { return len(s.Cohort) < len(s.Roster) }

// Scheduled reports whether the named client uploads this round.
func (s Schedule) Scheduled(name string) bool { return slices.Contains(s.Cohort, name) }

// ClientName returns the canonical name of client i.
func ClientName(i int) string { return fmt.Sprintf("client%d", i) }

// ClientNames returns the canonical names of clients 0..n-1: the roster of a
// federation nobody has left.
func ClientNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = ClientName(i)
	}
	return names
}

// ErrNotSent marks an Upload whose frame was encrypted but could not be
// sent: a network fault, which a host with a quorum budget may absorb — a
// local encryption fault is not, and aborts the round.
var ErrNotSent = errors.New("fl: upload not sent")

// Client is the client half of the Fig. 2 round. It knows the coordinator
// only as frames on a flnet.Transport: it uploads one "grads" frame, later
// receives the aggregate frame, reads K off it and opens it. Every client
// holds the private key in the Fig. 2 layout, so it is a Holder: it encrypts
// under the key's holder handle and opens the aggregate. The in-process
// Federation hosts one per party on a shared Context; cmd/flserver's client
// role hosts one on its own.
type Client struct {
	Holder
	Index int
}

// NewClient builds client i of ctx's federation, named ClientName(i); the
// Federation and cmd/flserver's client role build theirs with it.
func NewClient(ctx *Context, i int) *Client {
	return &Client{Holder: *ctx.NewHolder(ClientName(i)), Index: i}
}

// Upload is the client's first half of a round: encrypt the whole batch
// under the key holder's handle and send it as one "grads" frame. It returns
// the ciphertext count. A send that failed wraps ErrNotSent. It is an upload
// wave of one.
func (c *Client) Upload(tr flnet.Transport, round uint64, grads []float64) (int, error) {
	width := 0
	err := uploadWave(tr, round, []*Client{c}, [][]float64{grads}, func(_ *Client, n int, err error) error {
		width = n
		return err
	})
	if err != nil {
		return 0, err
	}
	return width, nil
}

// uploadWave uploads a wave of clients that share a context, grads[i] being
// wave[i]'s gradients, in three passes:
//  1. each member, in cohort order, encodes its gradients — stopping at the
//     first that fails;
//  2. what was encoded is encrypted as one host job (Holder.encryptUploads):
//     one paillier.EncryptVecs under the key holder's handle, each member on
//     its own nonce seed, drawn in cohort order from the context's stream,
//     and its own modelled launch;
//  3. each member's ciphertexts are framed (frameCiphertexts, as every
//     vertical message is) and sent, in cohort order, and settle is told the
//     outcome — the ciphertext count, or the send's error wrapping
//     ErrNotSent — and ends the wave by returning an error.
//
// A member that fails to encrypt ends the wave with its error once the
// members before it were settled; nothing after it is encrypted. A wave that
// settle ends has encrypted, and charged, the members after the one it ended
// at: settle ends a wave only by failing its round.
func uploadWave(tr flnet.Transport, round uint64, wave []*Client, grads [][]float64, settle func(cl *Client, sent int, err error) error) error {
	if len(wave) == 0 {
		return nil
	}
	h := &wave[0].Holder // every member holds the context's one key
	ctx := h.ctx
	var failed error
	w := &ctx.wave
	for i, cl := range wave {
		pts, err := ctx.encode(grads[i])
		if err != nil {
			failed = fmt.Errorf("fl: client %d encrypt: %w", cl.Index, err)
			break
		}
		w.pts, w.vals = append(w.pts, pts), append(w.vals, len(grads[i]))
	}
	cts, err := h.encryptUploads()
	if err != nil {
		failed = fmt.Errorf("fl: client %d encrypt: %w", wave[len(cts)].Index, err)
	}
	defer clear(cts)
	for i, batch := range cts {
		cl := wave[i]
		msg := flnet.Message{
			From: cl.Name, To: ServerName, Kind: "grads", Round: round,
			Payload: frameCiphertexts(nil, batch),
		}
		paillier.ReleaseBatch(batch) // framed: the payload is bytes of its own
		err := ctx.deliver(tr, msg)
		if err != nil {
			err = fmt.Errorf("%w: %w", ErrNotSent, err)
		}
		if err = settle(cl, len(batch), err); err != nil {
			for _, rest := range cts[i+1:] {
				paillier.ReleaseBatch(rest)
			}
			return err
		}
	}
	return failed
}

// uploads is the upload wave being encrypted — each upload's encoded
// plaintexts, gradient count and nonce seed, and then its ciphertexts — kept
// from wave to wave: uploadWave adds to it, encryptUploads empties it.
type uploads struct {
	pts   [][]mpint.Nat
	vals  []int
	seeds []uint64
	cts   [][]paillier.Ciphertext
}

// encryptUploads encrypts the wave's uploads under the key's holder handle —
// every Fig. 2 client holds the private key — as one charged HE batch
// (paillier.EncryptVecs): a launch an upload, each on its own next nonce
// seed, drawn in order, and on a GPU profile one host job for their lanes.
// It returns their ciphertexts, upload j's at j, in a slice kept for the next
// wave, and gives the plaintexts back to the arena. On an error it returns
// the uploads before the one that failed, charged with the device clock's
// advance up to the failure (a batch that failed whole charges nothing), and
// leaves the seed cursor after the failed one's seed, where encrypting them
// one at a time would have.
func (h *Holder) encryptUploads() ([][]paillier.Ciphertext, error) {
	c, w := h.ctx, &h.ctx.wave
	if len(w.pts) == 0 {
		return nil, nil
	}
	defer func() {
		clear(w.pts)
		w.pts, w.vals, w.seeds = w.pts[:0], w.vals[:0], w.seeds[:0]
	}()
	for range w.pts {
		w.seeds = append(w.seeds, h.nonces.next())
	}
	w.cts = slices.Grow(w.cts[:0], len(w.pts))[:len(w.pts)]
	var done int
	var err error
	// chargeHE fails only with the batch's own error, which err keeps.
	_, _ = c.chargeHE(func() (ops, instances int64, _ error) {
		if done, err = paillier.EncryptVecs(c.Backend, w.cts, h.key.Holder(), w.pts, w.seeds); done == 0 {
			return 0, 0, err // charges nothing
		}
		for j, b := range w.cts[:done] {
			ops += int64(len(b))
			instances += int64(w.vals[j])
			c.Costs.AddCompression(int64(w.vals[j]), int64(len(b)))
		}
		return ops, instances, nil
	})
	if err != nil {
		h.RestoreCursor(w.seeds[done])
		return w.cts[:done], err
	}
	for _, p := range w.pts {
		arena.putPlain(p)
	}
	return w.cts, nil
}

// Receive waits (until deadline; zero waits forever) for round's aggregate
// frame and returns it with the number of frames it discarded on the way:
// leftovers of earlier rounds, duplicates of them, other kinds. The first
// frame to arrive is not taken for the aggregate.
func (c *Client) Receive(tr flnet.Transport, round uint64, deadline time.Time) (frame []byte, stale int, err error) {
	for {
		msg, err := recvBy(tr, c.Name, deadline)
		if err != nil {
			return nil, stale, err
		}
		if msg.Round == round && msg.Kind == AggregateKind {
			return msg.Payload, stale, nil
		}
		stale++
	}
}

// ErrBadAggregate marks an aggregate frame that parsed but did not decrypt
// to a valid estimate: a ciphertext out of range, a slot past its
// bound, the wrong number of plaintexts. Unlike a frame that fails to parse
// (another copy may be good) it is fatal to the round.
var ErrBadAggregate = errors.New("fl: aggregate does not open")

// Open decrypts an aggregate frame into the full-federation estimate of count
// gradient values (openAggregate: K is read off the frame and checked
// before anything is decrypted). contributors is who the coordinator sealed,
// when the host knows — the in-process Federation does, and the frame's K is
// then cross-checked against their number. A TCP client cannot have that
// check: the wire tells it K, not who, so it passes nil. Every reject is
// typed: a frame error, or ErrBadAggregate.
func (c *Client) Open(frame []byte, count int, contributors []string) ([]float64, int, error) {
	sums, k, err := c.openAggregate(frame, count, contributors)
	if err != nil && !isFrameError(err) {
		err = fmt.Errorf("%w: %w", ErrBadAggregate, err)
	}
	return sums, k, err
}
