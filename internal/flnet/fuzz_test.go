package flnet

import (
	"bytes"
	"testing"
)

// fuzzAllocSlack is what a fuzz target allows on top of its input-length
// bound: size-class rounding of small objects and whatever the test binary's
// other goroutines allocate between the two MemStats readings. It is far
// below what any of the declared-length bugs these targets exist for would
// allocate (a group directory of MaxAggGroups entries is 1 MiB, a frame
// header can declare 1 GiB).
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

// FuzzDecodeGroupAgg: any bytes either reject with an error and nil outputs,
// or decode to groups that AppendGroupAgg turns back into the same bytes;
// never a panic, and never more allocation than the input pays for — the
// blobs are copies of input bytes and the directory (sizes, lengths, blob
// headers) is 40 bytes per group the frame really has room for.
func FuzzDecodeGroupAgg(f *testing.F) {
	valid, err := AppendGroupAgg(nil, []int{3, 1}, [][]byte{[]byte("first-group"), nil})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Fuzz(func(t *testing.T, b []byte) {
		var sizes []int
		var blobs [][]byte
		var err error
		grew := allocatedBy(func() { sizes, blobs, err = DecodeGroupAgg(b) })
		if bound := uint64(8*len(b) + fuzzAllocSlack); grew > bound {
			t.Fatalf("DecodeGroupAgg allocated %d bytes on a %d-byte frame (bound %d)", grew, len(b), bound)
		}
		if err != nil {
			if sizes != nil || blobs != nil {
				t.Fatalf("reject (%v) still returned %d sizes, %d blobs", err, len(sizes), len(blobs))
			}
			return
		}
		if len(sizes) != len(blobs) || 4+8*len(sizes) > len(b) {
			t.Fatalf("%d-byte frame decoded to %d sizes, %d blobs", len(b), len(sizes), len(blobs))
		}
		again, err := AppendGroupAgg(nil, sizes, blobs)
		if err != nil || !bytes.Equal(again, b) {
			t.Fatalf("accepted frame re-encodes to %x (%v), want %x", again, err, b)
		}
	})
}
