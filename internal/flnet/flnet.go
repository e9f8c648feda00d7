// Package flnet is the communication substrate: a message codec for
// ciphertext and gradient payloads, an in-process transport that really
// moves the encoded bytes between parties, a TCP transport over net for
// integration realism, and a link model calibrated to the paper's testbed
// (Gigabit Ethernet) that converts bytes on the wire into simulated
// communication time — the quantity Tables III/V/VI measure.
package flnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"flbooster/internal/mpint"
	"flbooster/internal/obs"
)

// ErrTimeout is returned (wrapped) by RecvTimeout when the deadline expires
// before a message arrives. Callers distinguish a quiet link from a broken
// one with IsTimeout.
var ErrTimeout = errors.New("flnet: receive timed out")

// IsTimeout reports whether err is a receive-deadline expiry.
func IsTimeout(err error) bool { return errors.Is(err, ErrTimeout) }

// ErrMalformed is returned (wrapped) by every decoder here for bytes that are
// not exactly one encoding of what was asked for: a frame header, a nat
// batch, a varint, a payload of fixed-width values.
var ErrMalformed = errors.New("flnet: malformed payload")

// Link models one network link.
type Link struct {
	// BandwidthBps is the link bandwidth in bits per second.
	BandwidthBps float64
	// LatencySec is the one-way message latency in seconds.
	LatencySec float64
}

// GigabitEthernet returns the paper's raw cluster interconnect: 1 Gb/s with
// a LAN-typical 200 µs round-trip budget per message.
func GigabitEthernet() Link {
	return Link{BandwidthBps: 1e9, LatencySec: 100e-6}
}

// FATEEffectiveLink returns the *effective* federation transport of a
// FATE-style deployment on Gigabit Ethernet — the calibration the
// experiment harness uses by default.
//
// The raw wire moves a 256-byte ciphertext in ~2 µs, but the paper's own
// measurements imply ciphertexts cost three orders of magnitude more end to
// end: Table IV puts HAFLO's HE throughput at ~58.8k instances/s (17 µs per
// instance) while Table VI attributes >99% of HAFLO's epoch to
// communication, so one instance's transfer costs ≳1.7 ms — an effective
// ~1–2 Mb/s per stream once rollsite proxying, serialization, and per-round
// synchronization are included. Reproducing the paper's component shares
// therefore requires the effective link, not the raw wire.
func FATEEffectiveLink() Link {
	return Link{BandwidthBps: 1.2e6, LatencySec: 10e-3}
}

// TransferTime returns the modelled wire time for a payload of n bytes.
func (l Link) TransferTime(n int64) time.Duration {
	if l.BandwidthBps <= 0 {
		return 0
	}
	sec := l.LatencySec + float64(n)*8/l.BandwidthBps
	return time.Duration(sec * float64(time.Second))
}

// Meter accumulates traffic per direction plus the modelled wire time.
// It is safe for concurrent use.
type Meter struct {
	link Link

	mu       sync.Mutex
	txBytes  int64
	messages int64
	simTime  time.Duration
}

// NewMeter builds a meter over a link model.
func NewMeter(link Link) *Meter { return &Meter{link: link} }

// Record accounts one message of n bytes.
func (m *Meter) Record(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.txBytes += n
	m.messages++
	m.simTime += m.link.TransferTime(n)
}

// Snapshot returns (bytes, messages, simulated time).
func (m *Meter) Snapshot() (int64, int64, time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.txBytes, m.messages, m.simTime
}

// Publish sets the meter's totals as absolute counters in reg under prefix
// (e.g. "net.tcp" → net.tcp.bytes / net.tcp.msgs / net.tcp.sim_ns).
func (m *Meter) Publish(reg *obs.Registry, prefix string) {
	bytes, msgs, sim := m.Snapshot()
	reg.Set(prefix+".bytes", bytes)
	reg.Set(prefix+".msgs", msgs)
	reg.Set(prefix+".sim_ns", int64(sim))
}

// Message is one party-to-party transfer.
type Message struct {
	From    string
	To      string
	Kind    string // protocol step label, e.g. "grads", "agg"
	Round   uint64 // federation round the message belongs to (0 = unversioned)
	Payload []byte
}

// WireSize is the framed size of the message on the wire, exactly what
// encodeMessage writes: the round stamp, the three strings each behind its
// length, all minimal uvarints, and the payload.
func (msg Message) WireSize() int64 {
	size := UvarintLen(msg.Round) + len(msg.Payload)
	for _, s := range [3]string{msg.From, msg.To, msg.Kind} {
		size += UvarintLen(uint64(len(s))) + len(s)
	}
	return int64(size)
}

// Transport moves messages between named parties.
type Transport interface {
	// Send delivers msg to its destination party's queue.
	Send(msg Message) error
	// Recv blocks until a message for the named party arrives.
	Recv(party string) (Message, error)
	// RecvTimeout blocks like Recv but gives up after d, returning an error
	// satisfying IsTimeout. d == 0 means no deadline; d < 0 means the
	// deadline has passed: a message already queued is returned, and
	// otherwise the timeout at once.
	RecvTimeout(party string, d time.Duration) (Message, error)
	// Close releases transport resources; subsequent calls fail.
	Close() error
}

// simQueue is one party's unbounded FIFO. A plain slice under a mutex grows
// with the actual backlog — a flat cross-device round parks every client's
// upload at the server before the gather loop drains any of them, so the
// server queue must absorb one message per party without Send ever blocking
// (a fixed channel would deadlock the single-threaded round protocol against
// its own backlog, and pre-sizing a channel per party costs O(parties²)
// memory). wake carries at most one token; pop re-arms it while messages
// remain so no waiting receiver misses a backlog.
type simQueue struct {
	mu    sync.Mutex
	items []Message
	head  int
	wake  chan struct{}
}

func (q *simQueue) push(m Message) {
	q.mu.Lock()
	q.items = append(q.items, m)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

func (q *simQueue) pop() (Message, bool) {
	q.mu.Lock()
	if q.head == len(q.items) {
		q.mu.Unlock()
		return Message{}, false
	}
	m := q.items[q.head]
	q.items[q.head] = Message{} // release the payload to the GC while queued
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	more := q.head < len(q.items)
	q.mu.Unlock()
	if more {
		select {
		case q.wake <- struct{}{}:
		default:
		}
	}
	return m, true
}

// SimTransport is the in-process transport: per-party unbounded queues.
// It meters nothing: the in-process round sends every frame through
// fl.Context.deliver, which charges it to the round's cost ledger. Closing
// never closes any channel a sender writes — a broadcast `done` channel
// unblocks receivers — so Send racing Close cannot panic.
//
// A deadline is read off the queue, not a clock: RecvTimeout with any d != 0
// returns a queued message, passed deadline or not, and on an empty queue
// returns ErrTimeout at once. The in-process round steps every party on one
// thread and sends a wave's uploads, or the broadcast, before anyone receives
// them, so a queued frame has arrived and an empty queue at a deadline means
// nothing more will. Recv, and RecvTimeout with d == 0, block until a message
// does.
type SimTransport struct {
	mu     sync.Mutex
	queues map[string]*simQueue
	done   chan struct{}
	closed bool
}

// NewSimTransport creates a transport for the named parties. The link is
// unused: the caller's cost ledger prices the frames.
func NewSimTransport(_ Link, parties ...string) *SimTransport {
	t := &SimTransport{
		queues: make(map[string]*simQueue, len(parties)),
		done:   make(chan struct{}),
	}
	for _, p := range parties {
		t.queues[p] = &simQueue{wake: make(chan struct{}, 1)}
	}
	return t
}

// Send implements Transport. The queues are unbounded, so Send never blocks.
func (t *SimTransport) Send(msg Message) error {
	t.mu.Lock()
	q, ok := t.queues[msg.To]
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return fmt.Errorf("flnet: send on closed transport")
	}
	if !ok {
		return fmt.Errorf("flnet: unknown party %q", msg.To)
	}
	q.push(msg)
	return nil
}

// Recv implements Transport.
func (t *SimTransport) Recv(party string) (Message, error) { return t.recv(party, false) }

// RecvTimeout implements Transport: with d != 0 an empty queue is a timeout
// (see SimTransport).
func (t *SimTransport) RecvTimeout(party string, d time.Duration) (Message, error) {
	return t.recv(party, d != 0)
}

func (t *SimTransport) recv(party string, deadline bool) (Message, error) {
	t.mu.Lock()
	q, ok := t.queues[party]
	t.mu.Unlock()
	if !ok {
		return Message{}, fmt.Errorf("flnet: unknown party %q", party)
	}
	for {
		// Drain already-delivered messages even after Close.
		if msg, ok := q.pop(); ok {
			return msg, nil
		}
		if deadline {
			select {
			case <-t.done: // closed, not quiet: reported below
			default:
				return Message{}, fmt.Errorf("%w: party %q", ErrTimeout, party)
			}
		}
		select {
		case <-q.wake:
			// Retry the pop; a concurrent receiver may have raced us to the
			// message, in which case we wait for the next token.
		case <-t.done:
			if msg, ok := q.pop(); ok { // a send landed before the close won
				return msg, nil
			}
			return Message{}, fmt.Errorf("flnet: transport closed")
		}
	}
}

// Close implements Transport.
func (t *SimTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return fmt.Errorf("flnet: already closed")
	}
	t.closed = true
	close(t.done)
	return nil
}

// ---- Payload codec -------------------------------------------------------
//
// Every integer header is a minimal unsigned varint (binary.AppendUvarint;
// ReadUvarint rejects a longer one), so a frame has exactly one encoding.
// Ciphertext batches are the dominant payload: a batch is its count, one
// width w and count values of exactly w big-endian bytes. All ciphertexts of
// a key are about as wide as n², so one width serves the batch, and its wire
// size directly reflects key size × element count — the quantity batch
// compression shrinks.

// minNatWidth is the narrowest a batch's width may be: it keeps a batch's
// value count within a quarter of its length, which bounds what a decoder
// allocates for a hostile count.
const minNatWidth = 4

// UvarintLen is the length of x's minimal uvarint.
func UvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// ReadUvarint reads the minimal uvarint at the front of b and returns it with
// the bytes behind it. A truncated varint, one past 64 bits and one longer
// than its value needs are ErrMalformed.
func ReadUvarint(b []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 || n != UvarintLen(x) {
		return 0, nil, fmt.Errorf("%w: no minimal varint in %d bytes", ErrMalformed, len(b))
	}
	return x, b[n:], nil
}

// natWidth is the width AppendNats writes v at: its widest value's byte
// length, at least minNatWidth.
func natWidth(v []mpint.Nat) int {
	w := minNatWidth
	for _, x := range v {
		w = max(w, (x.BitLen()+7)/8)
	}
	return w
}

// NatsSize is the length of v's AppendNats framing: BatchSize at its width.
func NatsSize(v []mpint.Nat) int { return BatchSize(len(v), natWidth(v)) }

// BatchSize is the length of a batch of count values framed at width w: the
// count's and the width's varints and w bytes a value.
func BatchSize(count, w int) int {
	return UvarintLen(uint64(count)) + UvarintLen(uint64(w)) + count*w
}

// AppendNats appends the wire framing of a batch of multi-precision integers
// to dst — the count, the width w (natWidth) and each value as exactly w
// big-endian bytes — and returns the extended slice; a dst with NatsSize
// bytes to spare takes no allocation.
func AppendNats(dst []byte, v []mpint.Nat) []byte {
	w := natWidth(v)
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(len(v))), uint64(w))
	for _, x := range v {
		dst = x.AppendBytes(append(dst, make([]byte, w-(x.BitLen()+7)/8)...))
	}
	return dst
}

// DecodeNatsInto parses a batch framed by AppendNats, appending into
// dst[:0] — callers with a pooled scratch slice skip the output allocation.
// Value i is parsed into the limbs dst's capacity holds at index i where they
// are long enough (mpint.SetBytes), into fresh limbs where they are not or the
// slot is nil, so a caller that owns a dead batch's values allocates nothing
// more. Those values are clobbered: dst's capacity must hold no value anybody
// still reads. Only AppendNats' own encoding is accepted: a non-minimal
// varint, a width below minNatWidth or wider than the widest value needs, and
// a body that is not count values of that width are ErrMalformed.
func DecodeNatsInto(dst []mpint.Nat, b []byte) ([]mpint.Nat, error) {
	n, b, err := ReadUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("flnet: nat batch count: %w", err)
	}
	w, b, err := ReadUvarint(b)
	if err != nil {
		return nil, fmt.Errorf("flnet: nat batch width: %w", err)
	}
	// Both headers are untrusted: checking count × width against the body
	// before the allocation stops a short frame from demanding gigabytes.
	if w < minNatWidth || uint64(len(b))%w != 0 || uint64(len(b))/w != n {
		return nil, fmt.Errorf("%w: %d values of width %d in a %d-byte body", ErrMalformed, n, w, len(b))
	}
	out := dst[:0]
	if cap(out) < int(n) {
		out = make([]mpint.Nat, 0, n)
	}
	top := w == minNatWidth
	for ; len(b) > 0; b = b[w:] {
		top = top || b[0] != 0
		out = append(out, mpint.SetBytes(mpint.Spare(out), b[:w]))
	}
	if !top {
		return nil, fmt.Errorf("%w: width %d is wider than every value of the batch", ErrMalformed, w)
	}
	return out, nil
}

// AppendUint64s appends v to dst as fixed-width little-endian uint64s, 8
// bytes a value: the count is the payload's length over 8, not a header.
func AppendUint64s(dst []byte, v []uint64) []byte {
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, x)
	}
	return dst
}

// DecodeUint64sInto parses exactly n values framed by AppendUint64s into
// dst[:0], growing it only when its capacity is short. A length that is not
// a multiple of 8, or that carries other than n values, is ErrMalformed.
func DecodeUint64sInto(dst []uint64, b []byte, n int) ([]uint64, error) {
	if len(b)%8 != 0 || len(b)/8 != n {
		return nil, fmt.Errorf("%w: %d bytes for %d 8-byte values", ErrMalformed, len(b), n)
	}
	out := dst[:0]
	for ; len(b) > 0; b = b[8:] {
		out = append(out, binary.LittleEndian.Uint64(b))
	}
	return out, nil
}
