package flnet

import (
	"bytes"
	"testing"
)

// fuzzAllocSlack is what a fuzz target allows on top of its input-length
// bound: size-class rounding of small objects and whatever the test binary's
// other goroutines allocate between the two MemStats readings. It is far
// below what any of the declared-length bugs these targets exist for would
// allocate (a frame header can declare 1 GiB).
const fuzzAllocSlack = 64 << 10

// FuzzReadFrame feeds arbitrary bytes to the TCP receive path — readFrame,
// then decodeMessage on the frame it returns. Neither may panic; a reject is
// an error with a nil frame / zero Message; an accepted message re-encodes
// and re-frames to exactly the bytes consumed; and readFrame's allocation is
// bounded by the bytes that were there to read, whatever the header declares.
func FuzzReadFrame(f *testing.F) {
	var valid bytes.Buffer
	writeFrame(&valid, encodeMessage(Message{From: "client3", To: "server", Kind: "grads", Round: 9,
		Payload: []byte{1, 0, 0, 0, 2, 0, 0, 0, 0xbe, 0xef}}))
	f.Add(valid.Bytes())
	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		var frame []byte
		var err error
		grew := allocatedBy(func() { frame, err = readFrame(r) })
		if bound := uint64(4*len(b) + frameAllocStep + fuzzAllocSlack); grew > bound {
			t.Fatalf("readFrame allocated %d bytes on a %d-byte input (bound %d)", grew, len(b), bound)
		}
		if err != nil {
			if frame != nil {
				t.Fatalf("reject (%v) still returned a %d-byte frame", err, len(frame))
			}
			return
		}
		consumed := len(b) - r.Len()
		if consumed != 4+len(frame) {
			t.Fatalf("a %d-byte frame consumed %d input bytes", len(frame), consumed)
		}
		msg, err := decodeMessage(frame)
		if err != nil {
			if msg.From != "" || msg.To != "" || msg.Kind != "" || msg.Round != 0 || msg.Payload != nil {
				t.Fatalf("reject (%v) still returned %+v", err, msg)
			}
			return
		}
		var again bytes.Buffer
		if err := writeFrame(&again, encodeMessage(msg)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), b[:consumed]) {
			t.Fatalf("accepted message re-encodes to %x, consumed %x", again.Bytes(), b[:consumed])
		}
	})
}
