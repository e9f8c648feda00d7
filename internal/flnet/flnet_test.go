package flnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"flbooster/internal/mpint"
)

func TestLinkTransferTime(t *testing.T) {
	l := GigabitEthernet()
	// 1 MB at 1 Gb/s ≈ 8 ms + latency.
	got := l.TransferTime(1 << 20)
	if got < 8*time.Millisecond || got > 9*time.Millisecond {
		t.Fatalf("TransferTime(1MiB) = %v", got)
	}
	if (Link{}).TransferTime(100) != 0 {
		t.Fatal("zero link should cost nothing")
	}
}

func TestMeter(t *testing.T) {
	m := NewMeter(GigabitEthernet())
	m.Record(1000)
	m.Record(2000)
	bytes, msgs, sim := m.Snapshot()
	if bytes != 3000 || msgs != 2 || sim <= 0 {
		t.Fatalf("meter snapshot: %d bytes, %d msgs, %v", bytes, msgs, sim)
	}
}

func TestSimTransportRoundTrip(t *testing.T) {
	tr := NewSimTransport(GigabitEthernet(), "a", "b")
	msg := Message{From: "a", To: "b", Kind: "test", Payload: []byte("hello")}
	if err := tr.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := tr.Recv("b")
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "a" || got.Kind != "test" || string(got.Payload) != "hello" {
		t.Fatalf("received %+v", got)
	}
}

func TestSimTransportErrors(t *testing.T) {
	tr := NewSimTransport(GigabitEthernet(), "a")
	if err := tr.Send(Message{To: "ghost"}); err == nil {
		t.Fatal("unknown destination should fail")
	}
	if _, err := tr.Recv("ghost"); err == nil {
		t.Fatal("unknown receiver should fail")
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err == nil {
		t.Fatal("double close should fail")
	}
	if err := tr.Send(Message{To: "a"}); err == nil {
		t.Fatal("send after close should fail")
	}
	if _, err := tr.Recv("a"); err == nil {
		t.Fatal("recv after close should fail")
	}
}

func TestEncodeDecodeNats(t *testing.T) {
	r := mpint.NewRNG(1)
	batch := []mpint.Nat{nil, mpint.One(), r.RandBits(100), r.RandBits(2048)}
	buf := AppendNats(nil, batch)
	got, err := DecodeNatsInto(nil, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(batch) {
		t.Fatalf("decoded %d of %d", len(got), len(batch))
	}
	for i := range batch {
		if mpint.Cmp(got[i], batch[i]) != 0 {
			t.Fatalf("element %d mismatch", i)
		}
	}
}

// TestNatsSizeIsTheEncodedLength: the size a batch is priced at is the length
// of its encoding — zero values, one-byte values, values with zero limbs above
// their top word and n²-wide values included.
func TestNatsSizeIsTheEncodedLength(t *testing.T) {
	r := mpint.NewRNG(3)
	for name, batch := range map[string][]mpint.Nat{
		"empty":        nil,
		"zero":         {nil},
		"zero limb":    {mpint.Nat{0}},
		"one byte":     {mpint.One(), mpint.FromUint64(0xFF)},
		"two bytes":    {mpint.FromUint64(0x100)},
		"high zeros":   {mpint.Nat{5, 0, 0}},
		"word":         {mpint.FromUint64(1 << 63)},
		"n² at 2,048":  {r.RandBits(4096), r.RandBits(4096)},
		"n² at 4,096":  {r.RandBits(8192)},
		"mixed widths": {nil, mpint.One(), r.RandBits(100), r.RandBits(2048), mpint.Nat{0, 1, 0}},
	} {
		if got, want := NatsSize(batch), len(AppendNats(nil, batch)); got != want {
			t.Errorf("%s: NatsSize %d, encoded %d bytes", name, got, want)
		}
	}
}

// TestDecodeNatsErrors: everything but AppendNats' one encoding of a batch
// is ErrMalformed.
func TestDecodeNatsErrors(t *testing.T) {
	for name, b := range map[string][]byte{
		"empty":                 nil,
		"no width":              {1},
		"truncated varint":      {0x80},
		"non-minimal count":     {0x81, 0x00, 4, 0, 0, 0, 1},
		"non-minimal width":     {1, 0x84, 0x00, 0, 0, 0, 1},
		"missing body":          {1, 4, 0, 0, 1},
		"width 0":               {1, 0},
		"width 3":               {1, 3, 0, 0, 1},
		"width past its values": {1, 5, 0, 0, 0, 0, 1},
		"empty batch of 5":      {0, 5},
		"trailing byte":         append(AppendNats(nil, []mpint.Nat{mpint.One()}), 0xFF),
	} {
		if out, err := DecodeNatsInto(nil, b); !errors.Is(err, ErrMalformed) || out != nil {
			t.Errorf("%s: decoded %v (%v), want ErrMalformed", name, out, err)
		}
	}
}

func TestTCPHubRoundTrip(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	alice, err := DialHub(hub.Addr(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	bob, err := DialHub(hub.Addr(), "bob")
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()

	payload := AppendNats(nil, []mpint.Nat{mpint.FromUint64(12345), mpint.NewRNG(2).RandBits(512)})
	if err := alice.Send(Message{From: "alice", To: "bob", Kind: "ct", Payload: payload}); err != nil {
		t.Fatal(err)
	}
	got, err := bob.Recv("bob")
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "alice" || got.Kind != "ct" {
		t.Fatalf("routed message header wrong: %+v", got)
	}
	nats, err := DecodeNatsInto(nil, got.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := nats[0].Uint64(); v != 12345 {
		t.Fatalf("payload corrupted: %v", v)
	}
	if _, err := bob.Recv("alice"); err == nil {
		t.Fatal("receiving for another party should fail")
	}
}

func TestTCPHubMetersTraffic(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	a, _ := DialHub(hub.Addr(), "a")
	defer a.Close()
	b, _ := DialHub(hub.Addr(), "b")
	defer b.Close()
	msg := Message{From: "a", To: "b", Kind: "x", Payload: make([]byte, 1000)}
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv("b"); err != nil {
		t.Fatal(err)
	}
	bytes, msgs, _ := hub.Meter().Snapshot()
	if msgs != 1 || bytes != msg.WireSize() {
		t.Fatalf("hub metered %d bytes %d msgs, want %d/1", bytes, msgs, msg.WireSize())
	}
}

func TestTCPClientClose(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	c, _ := DialHub(hub.Addr(), "c")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err == nil {
		t.Fatal("double close should fail")
	}
	if err := c.Send(Message{To: "c"}); err == nil {
		t.Fatal("send after close should fail")
	}
}

// TestMessageWireSize: WireSize is the length of encodeMessage's bytes at
// every varint length of the round stamp and the string lengths (1 byte up
// to 127, 2 from 128, 3 from 16,384, 10 at 2^64 − 1), and the frame decodes
// back to the message.
func TestMessageWireSize(t *testing.T) {
	for _, tc := range []struct {
		round  uint64
		strlen int
		want   int64 // the header's four varints, the strings and a 4-byte payload
	}{
		{0, 0, 4 + 4},
		{127, 0, 4 + 4},
		{128, 0, 5 + 4},
		{16383, 0, 5 + 4},
		{16384, 0, 6 + 4},
		{math.MaxUint64, 0, 13 + 4},
		{7, 127, 4 + 3*127 + 4},
		{7, 128, 7 + 3*128 + 4},
		{16384, 128, 9 + 3*128 + 4},
	} {
		str := strings.Repeat("x", tc.strlen)
		m := Message{From: str, To: str, Kind: str, Round: tc.round, Payload: []byte{1, 2, 3, 4}}
		frame := encodeMessage(m)
		if got := m.WireSize(); got != int64(len(frame)) || got != tc.want {
			t.Errorf("round %d, %d-byte strings: WireSize %d, encoded %d bytes, want %d", tc.round, tc.strlen, got, len(frame), tc.want)
		}
		dec, err := decodeMessage(frame)
		if err != nil || dec.From != str || dec.To != str || dec.Kind != str || dec.Round != tc.round || !bytes.Equal(dec.Payload, m.Payload) {
			t.Errorf("round %d, %d-byte strings: decoded %+v (%v)", tc.round, tc.strlen, dec, err)
		}
	}
}

func TestTCPHubBuffersEarlyMessages(t *testing.T) {
	// Regression: a message sent before its destination completes the hello
	// handshake must be queued and delivered, not dropped (clients race the
	// server at startup in the demo topology).
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	early, err := DialHub(hub.Addr(), "early")
	if err != nil {
		t.Fatal(err)
	}
	defer early.Close()
	if err := early.Send(Message{From: "early", To: "late", Kind: "hello", Payload: []byte("queued")}); err != nil {
		t.Fatal(err)
	}
	// Give the hub a moment to route (and queue) the frame.
	time.Sleep(50 * time.Millisecond)
	late, err := DialHub(hub.Addr(), "late")
	if err != nil {
		t.Fatal(err)
	}
	defer late.Close()
	msg, err := late.Recv("late")
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Payload) != "queued" {
		t.Fatalf("early message corrupted: %q", msg.Payload)
	}
}

func TestSimTransportCloseSendRace(t *testing.T) {
	// Regression: Send used to deliver on the queue channel after dropping
	// the lock, so a concurrent Close could panic with "send on closed
	// channel". Hammer the pair under -race; any panic fails the test.
	for iter := 0; iter < 25; iter++ {
		tr := NewSimTransport(GigabitEthernet(), "a", "b")
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 50; i++ {
					if err := tr.Send(Message{From: "a", To: "b"}); err != nil {
						return // transport closed underneath us: expected
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_ = tr.Close()
		}()
		close(start)
		wg.Wait()
	}
}

func TestSimTransportRecvTimeout(t *testing.T) {
	tr := NewSimTransport(GigabitEthernet(), "a", "b")
	defer tr.Close()
	start := time.Now()
	_, err := tr.RecvTimeout("b", 30*time.Millisecond)
	if !IsTimeout(err) {
		t.Fatalf("want timeout error, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout took far too long")
	}
	// A queued message beats the deadline.
	if err := tr.Send(Message{From: "a", To: "b", Kind: "x"}); err != nil {
		t.Fatal(err)
	}
	msg, err := tr.RecvTimeout("b", time.Minute)
	if err != nil || msg.Kind != "x" {
		t.Fatalf("RecvTimeout = %+v, %v", msg, err)
	}
	// In process an empty queue at a deadline is a timeout at once, however
	// far off the deadline is.
	if _, err := tr.RecvTimeout("b", time.Hour); !IsTimeout(err) {
		t.Fatalf("empty queue with an hour's deadline: want timeout, got %v", err)
	}
	// d == 0 behaves like Recv for a ready message.
	if err := tr.Send(Message{From: "a", To: "b", Kind: "y"}); err != nil {
		t.Fatal(err)
	}
	if msg, err := tr.RecvTimeout("b", 0); err != nil || msg.Kind != "y" {
		t.Fatalf("RecvTimeout(0) = %+v, %v", msg, err)
	}
	// A passed deadline (d < 0) still returns what is queued, and an empty
	// queue is then a timeout at once.
	if err := tr.Send(Message{From: "a", To: "b", Kind: "z"}); err != nil {
		t.Fatal(err)
	}
	if msg, err := tr.RecvTimeout("b", -time.Second); err != nil || msg.Kind != "z" {
		t.Fatalf("RecvTimeout(-1s) on a queued message = %+v, %v", msg, err)
	}
	if _, err := tr.RecvTimeout("b", -time.Second); !IsTimeout(err) {
		t.Fatalf("RecvTimeout(-1s) on an empty queue: want timeout, got %v", err)
	}
}

func TestSimTransportDrainsAfterClose(t *testing.T) {
	// Messages delivered before Close stay receivable afterwards.
	tr := NewSimTransport(GigabitEthernet(), "a", "b")
	if err := tr.Send(Message{From: "a", To: "b", Kind: "pre"}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	msg, err := tr.Recv("b")
	if err != nil || msg.Kind != "pre" {
		t.Fatalf("drain after close = %+v, %v", msg, err)
	}
	if _, err := tr.Recv("b"); err == nil {
		t.Fatal("empty queue after close should error")
	}
	if _, err := tr.RecvTimeout("b", time.Hour); err == nil || IsTimeout(err) {
		t.Fatalf("deadline receive on a closed, empty transport = %v, want the close", err)
	}
}

func TestDecodeNatsBoundsCountHeader(t *testing.T) {
	// A corrupt frame claiming 2^64-1 elements must fail the header check,
	// not attempt a multi-GB slice allocation.
	b := append(binary.AppendUvarint(nil, math.MaxUint64), 4)
	if _, err := DecodeNatsInto(nil, append(b, make([]byte, 16)...)); err == nil {
		t.Fatal("absurd count header should fail fast")
	}
	// Count that exceeds what the body could possibly hold.
	if _, err := DecodeNatsInto(nil, append([]byte{100, 4}, make([]byte, 16)...)); err == nil {
		t.Fatal("count beyond body capacity should fail")
	}
	// A count and width whose product wraps 64 bits to the body's length.
	b = binary.AppendUvarint(binary.AppendUvarint(nil, 1<<61), 8)
	if _, err := DecodeNatsInto(nil, b); err == nil {
		t.Fatal("a count × width that wraps to an empty body should fail")
	}
}

// FuzzDecodeNats throws arbitrary bytes at the nat-batch decoder every
// upload and aggregate passes through (fl.Context.DecodeCiphertexts),
// DecodeNatsInto. It never panics; a reject is ErrMalformed carrying no
// values; an accept holds at most len(b)/4 values — the count header cannot
// buy more slice than the body pays for — that survive an encode/decode round
// trip and re-encode to exactly the input, its one encoding; and decoding
// into a reused scratch slice yields the same values without growing the
// scratch past that bound.
func FuzzDecodeNats(f *testing.F) {
	f.Add(AppendNats(nil, []mpint.Nat{mpint.FromUint64(1), nil, mpint.FromUint64(1 << 40)}))
	f.Add([]byte{1, 0})                                              // width 0
	f.Add([]byte{1, 3, 0, 0, 1})                                     // width 3
	f.Add([]byte{2, 6, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 2})          // wider than its widest value
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 1<<61), 8)) // count × width wraps to 0
	sameNats := func(a, b []mpint.Nat) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if mpint.Cmp(a[i], b[i]) != 0 {
				return false
			}
		}
		return true
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		out, err := DecodeNatsInto(nil, b)
		if err != nil {
			if !errors.Is(err, ErrMalformed) || out != nil {
				t.Fatalf("reject (%v) is not ErrMalformed or still returned %d values", err, len(out))
			}
			return
		}
		if again := AppendNats(nil, out); !bytes.Equal(again, b) {
			t.Fatalf("accepted %x re-encodes to %x", b, again)
		}
		bound := len(b) / 4
		if len(out) > bound || cap(out) > bound {
			t.Fatalf("%d-byte frame decoded to len %d cap %d, bound %d", len(b), len(out), cap(out), bound)
		}
		again, err := DecodeNatsInto(nil, AppendNats(nil, out))
		if err != nil || !sameNats(again, out) {
			t.Fatalf("re-encoded batch decodes to %v (%v), want %v", again, err, out)
		}
		scratch := make([]mpint.Nat, 1, 2)
		reused, err := DecodeNatsInto(scratch, b)
		if err != nil || !sameNats(reused, out) {
			t.Fatalf("decode into scratch gave %v (%v), want %v", reused, err, out)
		}
		if cap(reused) > max(cap(scratch), bound) {
			t.Fatalf("cap-%d scratch grew to cap %d, bound %d", cap(scratch), cap(reused), bound)
		}

		// Into a dead batch's values: one slot more than the frame has, each 0–3
		// limbs carved from one array with its capacity clipped, behind a guard
		// word. A value goes into its slot's limbs when they hold it and into
		// limbs of its own when they do not; either way nothing is written
		// outside the slot it was given, nor into the spare slot.
		const guard = mpint.Word(0xdeadbeefcafef00d)
		slab := make([]mpint.Word, 1+3*(len(out)+1))
		for i := range slab {
			slab[i] = guard
		}
		slots, regions := make([]mpint.Nat, len(out)+1), make([][]mpint.Word, len(out)+1)
		at := 0
		for i := range slots {
			slots[i], regions[i] = slab[at:at:at+i%4], slab[at:at+i%4]
			at += i % 4
		}
		dead, err := DecodeNatsInto(slots[:0], b)
		if err != nil || !sameNats(dead, out) {
			t.Fatalf("decode into a dead batch gave %v (%v), want %v", dead, err, out)
		}
		_, rest, _ := ReadUvarint(b)
		w, _, _ := ReadUvarint(rest)
		need := (int(w) + 7) / 8 // the limbs every value of the batch is parsed into
		for i, region := range regions {
			fits := false
			if i < len(dead) {
				if fits = need <= len(region); fits && &dead[i][:1][0] != &region[0] {
					t.Fatalf("value %d (%d limbs) did not go into its %d-limb slot", i, need, len(region))
				}
			}
			for j, w := range region {
				if written := fits && (j < len(dead[i]) || w == 0); !written && w != guard {
					t.Fatalf("limb %d of slot %d (cap %d) overwritten: %#x", j, i, len(region), w)
				}
			}
		}
		if slab[len(slab)-1] != guard {
			t.Fatal("a decode wrote past the last slot")
		}
	})
}

// FuzzDecodeUint64s throws arbitrary bytes and counts at the fixed-width
// decoder every vertical plaintext reply passes through, DecodeUint64sInto.
// It never panics; a reject is ErrMalformed carrying no values, and exactly
// the inputs that are not n 8-byte values are rejected; an accept is n values
// that re-encode to the input.
func FuzzDecodeUint64s(f *testing.F) {
	f.Add(AppendUint64s(nil, []uint64{1<<63 + 5, 1<<63 - 7, 1}), 3) // a reply at s = 1
	f.Add(AppendUint64s(nil, []uint64{0, 1, 1 << 63, math.MaxUint64, 42, 7, 8, 9}), 8)
	f.Add([]byte{1, 2, 3}, 1) // truncated
	f.Add([]byte{}, 0)
	f.Add(make([]byte, 9), 1) // not a multiple of 8
	f.Add(make([]byte, 16), 1)
	f.Add(make([]byte, 8), -1)
	f.Fuzz(func(t *testing.T, b []byte, n int) {
		got, err := DecodeUint64sInto(nil, b, n)
		if err != nil {
			if !errors.Is(err, ErrMalformed) || got != nil {
				t.Fatalf("reject (%v) is not ErrMalformed or returned %d values", err, len(got))
			}
			if len(b)%8 == 0 && len(b)/8 == n {
				t.Fatalf("rejected %d well-formed values: %v", n, err)
			}
			return
		}
		if len(got) != n || !bytes.Equal(AppendUint64s(nil, got), b) {
			t.Fatalf("%d bytes decoded to %d values, asked for %d, re-encoding to other bytes", len(b), len(got), n)
		}
	})
}
