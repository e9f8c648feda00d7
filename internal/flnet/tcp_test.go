package flnet

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"testing"
	"time"
)

func TestDialHubFailure(t *testing.T) {
	// Grab a port and close it so the dial target is guaranteed dead.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := DialHub(addr, "x"); err == nil {
		t.Fatal("dialing a closed port should fail")
	}
}

func TestTCPClientRecvTimeout(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	c, err := DialHub(hub.Addr(), "quiet")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.RecvTimeout("quiet", 50*time.Millisecond)
	if !IsTimeout(err) {
		t.Fatalf("want timeout error, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline ignored")
	}
	// A passed deadline (d < 0) never waits: a quiet connection times out,
	// and a frame the reader holds is taken once it has arrived.
	if _, err := c.RecvTimeout("quiet", -1); !IsTimeout(err) {
		t.Fatalf("passed deadline on a quiet connection: want timeout, got %v", err)
	}
	if err := c.Send(Message{From: "quiet", To: "quiet", Kind: "late"}); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		msg, err := c.RecvTimeout("quiet", -1)
		if err == nil {
			if msg.Kind != "late" {
				t.Fatalf("passed deadline took %+v", msg)
			}
			break
		}
		if !IsTimeout(err) || time.Since(start) > 5*time.Second {
			t.Fatalf("passed deadline never took the arrived frame: %v", err)
		}
	}
}

func TestTCPClientPeerDisconnectMidFrame(t *testing.T) {
	// A raw listener that sends a frame header promising 100 bytes, delivers
	// 10, and slams the connection: Recv must error, not hang.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		readFrame(conn)       // consume the hello
		writeFrame(conn, nil) // and acknowledge it
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 100)
		conn.Write(hdr[:])
		conn.Write(make([]byte, 10))
		conn.Close()
	}()
	c, err := DialHub(ln.Addr().String(), "victim")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv("victim")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("truncated frame should surface an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv hung on a truncated frame")
	}
}

func TestTCPClientCloseUnblocksRecv(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	c, err := DialHub(hub.Addr(), "blocked")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv("blocked")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the receiver block
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv on a closed client should error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Recv")
	}
}

func TestTCPHubCloseUnblocksClientRecv(t *testing.T) {
	// The hub going down mid-round must error out blocked receivers.
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialHub(hub.Addr(), "orphan")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv("orphan")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("hub shutdown should surface as a recv error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hub close did not unblock client Recv")
	}
}

func TestTCPRoundStampSurvivesTheWire(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	a, err := DialHub(hub.Addr(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := DialHub(hub.Addr(), "b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Send(Message{From: "a", To: "b", Kind: "grads", Round: 1<<40 + 3}); err != nil {
		t.Fatal(err)
	}
	msg, err := b.RecvTimeout("b", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Round != 1<<40+3 {
		t.Fatalf("round stamp corrupted: %d", msg.Round)
	}
}

// allocatedBy returns the heap bytes fn allocated (cumulative, so a buffer
// that was freed again still counts).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReadFrameAllocatesWhatArrives: the length header is four untrusted
// bytes. A peer that declares a frame just under the 1 GiB cap and then goes
// away — at once, or after 100 KiB of body — must cost what it sent, not
// what it declared.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	hdr := []byte{0xff, 0xff, 0xff, 0x3f}
	for name, sent := range map[string][]byte{
		"header-then-eof": hdr,
		"100KiB-then-eof": append(append([]byte(nil), hdr...), make([]byte, 100<<10)...),
	} {
		var frame []byte
		var err error
		grew := allocatedBy(func() { frame, err = readFrame(bytes.NewReader(sent)) })
		if err == nil || frame != nil {
			t.Fatalf("%s: readFrame = %d bytes, %v; want an error", name, len(frame), err)
		}
		if grew >= 1<<20 {
			t.Fatalf("%s: readFrame allocated %d bytes for %d received", name, grew, len(sent))
		}
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 0x40, 1})); err == nil {
		t.Fatal("a frame past the limit must be rejected")
	}
}

// TestLargeFrameRoundTrips: a well-formed frame far past the first
// allocation step still arrives whole, through the framing alone and through
// the hub over loopback TCP (where it arrives in many partial reads).
func TestLargeFrameRoundTrips(t *testing.T) {
	body := make([]byte, 3<<20)
	for i := range body {
		body[i] = byte(i*31 + i>>11)
	}
	var wire bytes.Buffer
	if err := writeFrame(&wire, body); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&wire)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("readFrame returned %d bytes, %v; want the %d written", len(got), err, len(body))
	}

	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	a, err := DialHub(hub.Addr(), "a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := DialHub(hub.Addr(), "b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Send(Message{From: "a", To: "b", Kind: "grads", Round: 7, Payload: body}); err != nil {
		t.Fatal(err)
	}
	msg, err := b.RecvTimeout("b", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Kind != "grads" || msg.Round != 7 || !bytes.Equal(msg.Payload, body) {
		t.Fatalf("3 MiB payload corrupted in flight: kind %q round %d, %d bytes", msg.Kind, msg.Round, len(msg.Payload))
	}
}

// TestRecvTimeoutMidFrameKeepsTheStream is the slow-loris case: the peer
// writes half a frame, the receiver's deadline expires, the peer writes the
// rest — and the next Recv returns the whole message. (Before the reader
// goroutine moved into TCPClient a read deadline fired inside readFrame and
// the bytes already consumed were lost: the stream was desynchronised.)
func TestRecvTimeoutMidFrameKeepsTheStream(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	want := Message{From: "peer", To: "rx", Kind: "grads", Round: 7, Payload: bytes.Repeat([]byte{0xAB}, 300)}
	firstHalf, rest := make(chan struct{}), make(chan struct{})
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		readFrame(conn)       // consume the hello
		writeFrame(conn, nil) // and acknowledge it
		body := encodeMessage(want)
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
		conn.Write(hdr[:])
		conn.Write(body[:len(body)/2])
		close(firstHalf)
		<-rest
		conn.Write(body[len(body)/2:])
		time.Sleep(time.Second) // keep the connection open while the receiver reads
	}()
	c, err := DialHub(ln.Addr().String(), "rx")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	<-firstHalf
	if _, err := c.RecvTimeout("rx", 20*time.Millisecond); !IsTimeout(err) {
		t.Fatalf("half a frame within the deadline: want a timeout, got %v", err)
	}
	close(rest)
	got, err := c.RecvTimeout("rx", 5*time.Second)
	if err != nil {
		t.Fatalf("the completed frame was lost with the timeout: %v", err)
	}
	if got.From != want.From || got.Kind != want.Kind || got.Round != want.Round || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("stream desynchronised after a mid-frame timeout: got %+v", got)
	}
}

// TestDialTimeoutCloseLeavesNoGoroutine: Close reaps the reader goroutine,
// whether it was blocked in a read or holding a frame nobody received.
func TestDialTimeoutCloseLeavesNoGoroutine(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	sender, err := DialHub(hub.Addr(), "sender")
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	cycle := func(i int) {
		c, err := DialHub(hub.Addr(), "cycler")
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 { // leave a frame parked in the reader, unreceived
			if err := sender.Send(Message{From: "sender", To: "cycler", Kind: "x"}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.RecvTimeout("cycler", time.Millisecond); err != nil && !IsTimeout(err) {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cycle(0) // warm up whatever the runtime starts lazily
	settle := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			time.Sleep(10 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				break
			}
			n = m
		}
		return n
	}
	before := settle()
	for i := 0; i < 100; i++ {
		cycle(i)
	}
	if after := settle(); after > before {
		t.Fatalf("%d goroutines before 100 dial/timeout/close cycles, %d after", before, after)
	}
}

// TestHubDropsSpoofedFrom: a connection speaks for the name it said hello
// with; a frame claiming another From is dropped and counted, not relayed.
func TestHubDropsSpoofedFrom(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	mallory, err := DialHub(hub.Addr(), "mallory")
	if err != nil {
		t.Fatal(err)
	}
	defer mallory.Close()
	server, err := DialHub(hub.Addr(), "server")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	if err := mallory.Send(Message{From: "alice", To: "server", Kind: "grads", Payload: []byte("forged")}); err != nil {
		t.Fatal(err)
	}
	if err := mallory.Send(Message{From: "mallory", To: "server", Kind: "grads", Payload: []byte("own")}); err != nil {
		t.Fatal(err)
	}
	got, err := server.RecvTimeout("server", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != "mallory" || string(got.Payload) != "own" {
		t.Fatalf("hub relayed %q from %q: the forged frame got through", got.Payload, got.From)
	}
	if n := hub.Spoofed(); n != 1 {
		t.Fatalf("hub counted %d spoofed frames, want 1", n)
	}
	if _, msgs, _ := hub.Meter().Snapshot(); msgs != 1 {
		t.Fatalf("hub metered %d messages, want the honest one only", msgs)
	}
}

// TestHubSilentDialerDelaysNobody: a peer that dials and never says hello
// holds only its own connection's goroutine, so a party that dials after it
// registers and receives at once, and Close reaps the silent connection's
// goroutine instead of waiting out its hello deadline.
func TestHubSilentDialerDelaysNobody(t *testing.T) {
	settle := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			time.Sleep(10 * time.Millisecond)
			if m := runtime.NumGoroutine(); m == n {
				break
			} else {
				n = m
			}
		}
		return n
	}
	before := settle()
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	silent, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	server, err := DialHub(hub.Addr(), "server")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	client, err := DialHub(hub.Addr(), "client0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Send(Message{From: "client0", To: "server", Kind: "grads", Payload: []byte("up")}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	got, err := server.RecvTimeout("server", helloTimeout/2)
	if err != nil || string(got.Payload) != "up" {
		t.Fatalf("registration behind a silent dialer: %+v, %v after %v", got, err, time.Since(start))
	}
	closed := time.Now()
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(closed); d > helloTimeout/2 {
		t.Fatalf("Close waited %v on a connection that never said hello", d)
	}
	server.Close()
	client.Close()
	silent.Close()
	if after := settle(); after > before {
		t.Fatalf("%d goroutines before the hub, %d after its Close", before, after)
	}
}

// TestHubQueuesForACrashedParty: when a party's connection ends the hub
// forgets it, so a frame sent to it while it is gone waits in the queue and
// is delivered, exactly once, when it dials again — not written to the dead
// socket and lost.
func TestHubQueuesForACrashedParty(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	server, err := DialHub(hub.Addr(), "server")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	registered := func(name string) bool {
		hub.mu.Lock()
		defer hub.mu.Unlock()
		_, ok := hub.conns[name]
		return ok
	}
	waitFor := func(what string, cond func() bool) {
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	crashed, err := DialHub(hub.Addr(), "client0")
	if err != nil {
		t.Fatal(err)
	}
	waitFor("client0 to register", func() bool { return registered("client0") })
	crashed.Close()
	waitFor("the hub to forget client0", func() bool { return !registered("client0") })

	if err := server.Send(Message{From: "server", To: "client0", Kind: "agg", Round: 7, Payload: []byte("sum")}); err != nil {
		t.Fatal(err)
	}
	waitFor("the frame to queue", func() bool {
		hub.mu.Lock()
		defer hub.mu.Unlock()
		return len(hub.pending["client0"]) == 1
	})
	back, err := DialHub(hub.Addr(), "client0")
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	got, err := back.RecvTimeout("client0", 5*time.Second)
	if err != nil || got.Round != 7 || string(got.Payload) != "sum" {
		t.Fatalf("re-dialled party got %+v, %v; want the frame queued while it was gone", got, err)
	}
	if extra, err := back.RecvTimeout("client0", 50*time.Millisecond); !IsTimeout(err) {
		t.Fatalf("frame delivered twice: %+v, %v", extra, err)
	}
}

// TestHubCapsWhatItHoldsForAbsentParties: frames addressed to a name nobody
// has registered queue only up to maxQueued bytes in all; each frame past the
// cap is dropped and counted. When the name registers, its queue is handed
// over and its bytes leave the count, so the cap is free again.
func TestHubCapsWhatItHoldsForAbsentParties(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	mallory, err := DialHub(hub.Addr(), "mallory")
	if err != nil {
		t.Fatal(err)
	}
	defer mallory.Close()
	held := func() (queued, frames, size int) {
		hub.mu.Lock()
		defer hub.mu.Unlock()
		for _, q := range hub.pending {
			frames += len(q)
			for _, f := range q {
				size += len(f)
			}
		}
		return hub.queued, frames, size
	}
	waitFor := func(what string, cond func() bool) {
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	// Five frames of a quarter of the cap each: three fit beside their
	// headers, the fourth and fifth do not.
	payload := make([]byte, maxQueued/4)
	for i := 0; i < 5; i++ {
		if err := mallory.Send(Message{From: "mallory", To: "ghost", Kind: "grads", Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor("the hub to route five frames", func() bool {
		_, frames, _ := held()
		return frames+int(hub.Dropped()) == 5
	})
	if queued, frames, size := held(); frames != 3 || size != queued || queued > maxQueued || hub.Dropped() != 2 {
		t.Fatalf("hub holds %d frames of %d bytes (counted %d, cap %d) and dropped %d; want 3 held within the cap and 2 dropped",
			frames, size, queued, maxQueued, hub.Dropped())
	}

	ghost, err := DialHub(hub.Addr(), "ghost")
	if err != nil {
		t.Fatal(err)
	}
	ghost.Close()
	if queued, frames, _ := held(); queued != 0 || frames != 0 {
		t.Fatalf("after ghost registered the hub still counts %d bytes in %d frames", queued, frames)
	}
	if err := mallory.Send(Message{From: "mallory", To: "ghost2", Kind: "grads", Payload: payload}); err != nil {
		t.Fatal(err)
	}
	waitFor("the next absent party's frame to queue", func() bool {
		_, frames, _ := held()
		return frames == 1
	})
	if hub.Dropped() != 2 {
		t.Fatalf("a frame within the freed cap was dropped: %d drops", hub.Dropped())
	}
}

// TestHubSecondHelloKeepsTheName: a party that re-dials before the hub has
// seen its old connection end keeps the name when the old one does end.
func TestHubSecondHelloKeepsTheName(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	server, err := DialHub(hub.Addr(), "server")
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	conn := func() net.Conn {
		hub.mu.Lock()
		defer hub.mu.Unlock()
		return hub.conns["client0"]
	}
	old, err := DialHub(hub.Addr(), "client0")
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); conn() == nil; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("client0 never registered")
		}
	}
	first := conn()
	fresh, err := DialHub(hub.Addr(), "client0")
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for deadline := time.Now().Add(5 * time.Second); conn() == first; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second hello never took the name")
		}
	}
	old.Close()
	time.Sleep(50 * time.Millisecond) // the old connection's end reaches the hub
	if err := server.Send(Message{From: "server", To: "client0", Kind: "agg", Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if got, err := fresh.RecvTimeout("client0", 5*time.Second); err != nil || string(got.Payload) != "x" {
		t.Fatalf("the re-dialled connection lost its name when the old one ended: %+v, %v", got, err)
	}
}

// TestHubRefusesAStaleHello is the crash-and-resume schedule of the TCP
// failpoint sweep under load: a server's connection is accepted, the process
// dies, its successor dials and registers, and only then does the hub read
// the first connection's hello. Were that hello to take the name, its end
// would drop the name, and the uploads would queue for a server that never
// says hello again. DialHub returns with the name registered, and the hub
// refuses a hello from a connection accepted before the name's holder.
func TestHubRefusesAStaleHello(t *testing.T) {
	hub, err := NewTCPHub("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	crashed, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer crashed.Close()
	resumed, err := DialHub(hub.Addr(), "server")
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	hub.mu.Lock()
	holder := hub.conns["server"]
	hub.mu.Unlock()
	if holder == nil || holder.RemoteAddr().String() != resumed.conn.LocalAddr().String() {
		t.Fatal("DialHub returned before the hub registered its connection")
	}

	if err := writeFrame(crashed, []byte("server")); err != nil {
		t.Fatal(err)
	}
	crashed.SetReadDeadline(time.Now().Add(5 * time.Second))
	if frame, err := readFrame(crashed); err == nil {
		t.Fatalf("the hub answered a stale hello with a %d-byte frame", len(frame))
	}
	crashed.Close()

	client, err := DialHub(hub.Addr(), "client0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Send(Message{From: "client0", To: "server", Kind: "grads", Round: 1}); err != nil {
		t.Fatal(err)
	}
	if got, err := resumed.RecvTimeout("server", 5*time.Second); err != nil || got.From != "client0" {
		t.Fatalf("the registered server lost its name to a stale hello: %+v, %v", got, err)
	}
}
