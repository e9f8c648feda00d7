package flnet

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCPHub is a star-topology transport over real TCP connections: every
// party dials the hub, which routes framed messages to the destination
// party's connection. It exists so the federated protocols are exercised
// over the net package end to end (cmd/flserver and the integration tests);
// benches use SimTransport for deterministic timing.
type TCPHub struct {
	ln      net.Listener
	meter   *Meter
	spoofed atomic.Int64 // frames dropped for claiming another party's name
	dropped atomic.Int64 // frames dropped because the queue for absent parties was full

	mu       sync.Mutex
	conns    map[string]net.Conn   // the registered connection of each name
	open     map[net.Conn]struct{} // every connection not yet closed, said hello or not
	pending  map[string][][]byte   // frames for parties with no live connection
	queued   int                   // bytes of the frames in pending, at most maxQueued
	accepted uint64                // connections accepted so far
	newest   map[string]uint64     // the latest-accepted connection a name has registered
	closed   bool
	wg       sync.WaitGroup
}

// maxQueued caps the bytes the hub holds, over every name, for parties with no
// live connection, so a party that addresses frames to a name nobody will
// register costs the hub at most this much. The largest legitimate backlog is
// a round's uploads queued for a server that dials after every client has
// uploaded (a resumed server), beside the aggregate queued for a client that
// crashed and re-dials (TestHubQueuesForACrashedParty: one frame of a few
// bytes). A packed upload at 2,048-bit keys is a 512-byte ciphertext per 63
// values, about 8.1 B a parameter, so 64 MiB holds a round of 8 clients each
// uploading a 10⁶-parameter model, or of 128 clients a 6·10⁴-parameter one;
// flserver's demo uploads 8 values a client.
const maxQueued = 64 << 20

// helloTimeout bounds how long a new connection may take to say its name. The
// hello is read on the connection's own goroutine, so a peer that dials and
// never speaks delays nobody else's registration; this only reaps it.
const helloTimeout = 10 * time.Second

// NewTCPHub listens on addr (e.g. "127.0.0.1:0") and routes messages among
// the parties that dial it, metering them on the paper's GigabitEthernet link.
func NewTCPHub(addr string) (*TCPHub, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("flnet: hub listen: %w", err)
	}
	h := &TCPHub{
		ln:      ln,
		meter:   NewMeter(GigabitEthernet()),
		conns:   make(map[string]net.Conn),
		open:    make(map[net.Conn]struct{}),
		pending: make(map[string][][]byte),
		newest:  make(map[string]uint64),
	}
	h.wg.Add(1)
	go h.acceptLoop()
	return h, nil
}

// Addr returns the hub's listen address.
func (h *TCPHub) Addr() string { return h.ln.Addr().String() }

// Meter exposes the hub-side traffic meter.
func (h *TCPHub) Meter() *Meter { return h.meter }

// Spoofed counts the frames routeLoop dropped because their From was not the
// name their connection said hello with.
func (h *TCPHub) Spoofed() int64 { return h.spoofed.Load() }

// Dropped counts the frames routeLoop dropped because queueing them for a
// party with no live connection would have passed maxQueued.
func (h *TCPHub) Dropped() int64 { return h.dropped.Load() }

func (h *TCPHub) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.mu.Lock()
		if h.closed {
			h.mu.Unlock()
			conn.Close()
			return
		}
		h.open[conn] = struct{}{}
		h.accepted++
		seq := h.accepted
		h.wg.Add(1)
		h.mu.Unlock()
		go h.serve(conn, seq)
	}
}

// serve reads the connection's hello — its first frame, the party name —
// under helloTimeout, registers it under that name, acknowledges it with an
// empty frame, delivers what was queued for the name, and routes its frames
// until it ends. A hello from a connection accepted after the name's holder
// takes the name over; one from a connection accepted before it (a crashed
// incarnation whose hello the hub reads only after its successor's) is
// refused and the connection closed: hellos are read on goroutines of their
// own, in no particular order, so the accept order decides.
func (h *TCPHub) serve(conn net.Conn, seq uint64) {
	defer h.wg.Done()
	defer h.forget(conn)
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	hello, err := readFrame(conn)
	if err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{})
	name := string(hello)
	h.mu.Lock()
	if h.closed || seq < h.newest[name] {
		h.mu.Unlock()
		return
	}
	h.conns[name], h.newest[name] = conn, seq
	// The ack goes out before the lock is released, so no routeLoop can write
	// to the connection ahead of it: it is the first frame the party reads.
	// Four bytes into a fresh connection's empty send buffer do not block.
	writeFrame(conn, nil)
	// Deliver anything queued while the party had no connection.
	queued := h.pending[name]
	delete(h.pending, name)
	for _, frame := range queued {
		h.queued -= len(frame)
	}
	h.mu.Unlock()
	for _, frame := range queued {
		writeFrame(conn, frame)
	}
	h.routeLoop(name, conn)
}

// forget closes a connection that ended and drops it from the hub. The name
// is released only if it is still this connection's, so a party that has
// already re-dialled keeps its new one; frames for a name with no connection
// queue in pending until the party dials again.
func (h *TCPHub) forget(conn net.Conn) {
	conn.Close()
	h.mu.Lock()
	delete(h.open, conn)
	for name, c := range h.conns {
		if c == conn {
			delete(h.conns, name)
		}
	}
	h.mu.Unlock()
}

func (h *TCPHub) routeLoop(name string, conn net.Conn) {
	for {
		frame, err := readFrame(conn)
		if err != nil {
			return
		}
		msg, err := decodeMessage(frame)
		if err != nil {
			continue
		}
		// A connection speaks for the name it registered with and no other:
		// relaying a forged From would let any client upload as another and
		// have the honest upload discarded as the duplicate. (A second hello
		// under a registered name is out of scope: the demo has no PKI.)
		if msg.From != name {
			h.spoofed.Add(1)
			continue
		}
		h.meter.Record(msg.WireSize())
		h.mu.Lock()
		dst, ok := h.conns[msg.To]
		if !ok {
			// The destination has no live connection: it has not completed its
			// hello yet (clients race the server at startup), or its last one
			// ended. Queue until it registers, within maxQueued.
			if h.queued+len(frame) > maxQueued {
				h.dropped.Add(1)
			} else {
				h.pending[msg.To] = append(h.pending[msg.To], frame)
				h.queued += len(frame)
			}
		}
		h.mu.Unlock()
		if ok {
			writeFrame(dst, frame)
		}
	}
}

// Close shuts down the hub and all party connections.
func (h *TCPHub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return fmt.Errorf("flnet: hub already closed")
	}
	h.closed = true
	conns := make([]net.Conn, 0, len(h.open))
	for c := range h.open {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	h.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	h.wg.Wait()
	return nil
}

// TCPClient is one party's connection to a hub; it implements Transport for
// that single party (Recv must be called with the party's own name). A reader
// goroutine takes whole frames off the connection, so a receive deadline that
// expires mid-frame loses nothing: the next Recv returns the completed frame.
type TCPClient struct {
	name string
	conn net.Conn

	frames  chan []byte   // whole frames from readLoop; closed when it exits
	readErr error         // why readLoop exited; set before frames is closed
	done    chan struct{} // closed by Close

	mu     sync.Mutex // serializes writes
	closed bool
}

// DialHub connects a named party to a hub and returns once the hub has
// registered the name, so every frame sent to the name from then on reaches
// this connection.
func DialHub(addr, party string) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("flnet: dial hub: %w", err)
	}
	if err := hello(conn, party); err != nil {
		conn.Close()
		return nil, err
	}
	c := &TCPClient{name: party, conn: conn, frames: make(chan []byte), done: make(chan struct{})}
	go c.readLoop()
	return c, nil
}

// hello says the party's name and waits, up to helloTimeout, for the hub's
// empty acknowledgement frame.
func hello(conn net.Conn, party string) error {
	if err := writeFrame(conn, []byte(party)); err != nil {
		return fmt.Errorf("flnet: hello: %w", err)
	}
	conn.SetReadDeadline(time.Now().Add(helloTimeout))
	ack, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("flnet: hello not acknowledged: %w", err)
	}
	if len(ack) != 0 {
		return fmt.Errorf("flnet: hello acknowledged with a %d-byte frame", len(ack))
	}
	return conn.SetReadDeadline(time.Time{})
}

func (c *TCPClient) readLoop() {
	defer close(c.frames)
	for {
		frame, err := readFrame(c.conn)
		if err != nil {
			c.readErr = err
			return
		}
		select {
		case c.frames <- frame:
		case <-c.done:
			return
		}
	}
}

// Send implements Transport.
func (c *TCPClient) Send(msg Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("flnet: send on closed client")
	}
	return writeFrame(c.conn, encodeMessage(msg))
}

// Recv implements Transport. party must equal the client's own name.
func (c *TCPClient) Recv(party string) (Message, error) {
	return c.RecvTimeout(party, 0)
}

// RecvTimeout implements Transport: it waits for the reader's next whole
// frame, the deadline or the connection's end, whichever comes first. With
// d < 0 it takes a frame the reader already holds and does not wait.
func (c *TCPClient) RecvTimeout(party string, d time.Duration) (Message, error) {
	if party != c.name {
		return Message{}, fmt.Errorf("flnet: client %q cannot receive for %q", c.name, party)
	}
	var frame []byte
	var ok bool
	if d < 0 {
		select {
		case frame, ok = <-c.frames:
		default:
			return Message{}, fmt.Errorf("%w: party %q", ErrTimeout, party)
		}
	} else {
		var timeout <-chan time.Time
		if d > 0 {
			timer := time.NewTimer(d)
			defer timer.Stop()
			timeout = timer.C
		}
		select {
		case frame, ok = <-c.frames:
		case <-timeout:
			return Message{}, fmt.Errorf("%w: party %q", ErrTimeout, party)
		}
	}
	if !ok {
		return Message{}, fmt.Errorf("flnet: recv: %w", c.readErr)
	}
	return decodeMessage(frame)
}

// Close implements Transport and reaps the reader goroutine.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("flnet: client already closed")
	}
	c.closed = true
	close(c.done)
	err := c.conn.Close()
	for range c.frames { // until readLoop has exited
	}
	return err
}

// ---- framing ---------------------------------------------------------

// writeFrame sends the length header and the body as one write (a single
// writev on a TCP connection, which holds the connection's write lock
// throughout). The hub relays every sender on its own goroutine, so two
// frames bound for one destination must not interleave header and body.
func writeFrame(w io.Writer, b []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(b)))
	bufs := net.Buffers{hdr[:], b}
	_, err := bufs.WriteTo(w)
	return err
}

// maxFrame is the largest frame body readFrame accepts. Whole-batch uploads
// are legitimately large (a 10⁷-parameter model at 2,048 bits is an 82 MB
// frame), so the defence against a hostile header is frameAllocStep, not a
// lower cap.
const maxFrame = 1 << 30

// frameAllocStep bounds how far readFrame's buffer runs ahead of the body
// bytes that have actually arrived: the length header is four untrusted
// bytes, and a peer that declares a gigabyte and stalls must cost the hub
// this much, not what it declared.
const frameAllocStep = 64 << 10

// readFrame reads one length-prefixed frame. Frames up to frameAllocStep are
// read into an exact buffer; a longer one starts there and doubles only once
// everything allocated so far has arrived, so memory stays within a constant
// factor of the bytes the peer really sent.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	declared := binary.LittleEndian.Uint32(hdr[:])
	if declared > maxFrame {
		return nil, fmt.Errorf("flnet: frame of %d bytes exceeds limit", declared)
	}
	n := int(declared)
	buf := make([]byte, min(n, frameAllocStep))
	for got := 0; ; {
		m, err := io.ReadFull(r, buf[got:])
		got += m
		if err != nil {
			if err == io.EOF && got > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
		if got == n {
			return buf, nil
		}
		grown := make([]byte, min(n, 2*got))
		copy(grown, buf)
		buf = grown
	}
}

func encodeMessage(m Message) []byte {
	buf := binary.AppendUvarint(make([]byte, 0, m.WireSize()), m.Round)
	for _, s := range [3]string{m.From, m.To, m.Kind} {
		buf = append(binary.AppendUvarint(buf, uint64(len(s))), s...)
	}
	return append(buf, m.Payload...)
}

// decodeMessage is encodeMessage's inverse; a frame that is not one of its
// encodings (ReadUvarint's rejects, a string longer than the frame) is
// ErrMalformed.
func decodeMessage(b []byte) (Message, error) {
	round, b, err := ReadUvarint(b)
	if err != nil {
		return Message{}, fmt.Errorf("flnet: message round: %w", err)
	}
	var fields [3]string
	for i := range fields {
		var l uint64
		if l, b, err = ReadUvarint(b); err != nil {
			return Message{}, fmt.Errorf("flnet: message field: %w", err)
		}
		if l > uint64(len(b)) {
			return Message{}, fmt.Errorf("%w: a %d-byte field in %d bytes", ErrMalformed, l, len(b))
		}
		fields[i], b = string(b[:l]), b[l:]
	}
	return Message{From: fields[0], To: fields[1], Kind: fields[2], Round: round, Payload: b}, nil
}
