package flnet

import (
	"encoding/binary"
	"testing"
)

func TestGroupAggRoundtrip(t *testing.T) {
	sizes := []int{3, 2, 4}
	blobs := [][]byte{{1, 2, 3}, {}, {9, 8}}
	frame, err := AppendGroupAgg(nil, sizes, blobs)
	if err != nil {
		t.Fatal(err)
	}
	gotSizes, gotBlobs, err := DecodeGroupAgg(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSizes) != len(sizes) || len(gotBlobs) != len(blobs) {
		t.Fatalf("decoded %d/%d groups, want %d", len(gotSizes), len(gotBlobs), len(sizes))
	}
	for g := range sizes {
		if gotSizes[g] != sizes[g] {
			t.Errorf("group %d size = %d, want %d", g, gotSizes[g], sizes[g])
		}
		if string(gotBlobs[g]) != string(blobs[g]) {
			t.Errorf("group %d blob diverged", g)
		}
	}
	// Decoded blobs must be copies: mutating the frame must not alias them.
	for i := range frame {
		frame[i] = 0xFF
	}
	if string(gotBlobs[0]) != "\x01\x02\x03" {
		t.Error("decoded blob aliases the frame buffer")
	}
}

func TestEncodeGroupAggRejects(t *testing.T) {
	if _, err := AppendGroupAgg(nil, nil, nil); err == nil {
		t.Error("empty frame should fail")
	}
	if _, err := AppendGroupAgg(nil, []int{1, 2}, [][]byte{{1}}); err == nil {
		t.Error("size/blob count mismatch should fail")
	}
	if _, err := AppendGroupAgg(nil, []int{0}, [][]byte{{1}}); err == nil {
		t.Error("zero-contributor group should fail")
	}
	big := make([]int, MaxAggGroups+1)
	for i := range big {
		big[i] = 1
	}
	if _, err := AppendGroupAgg(nil, big, make([][]byte, len(big))); err == nil {
		t.Error("over-bound group count should fail")
	}
}

func TestDecodeGroupAggRejectsMalformed(t *testing.T) {
	good, err := AppendGroupAgg(nil, []int{2, 1}, [][]byte{{1, 2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"truncated header":    good[:3],
		"truncated directory": good[:10],
		"trailing bytes":      append(append([]byte(nil), good...), 0),
	}
	zero := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(zero, 0)
	cases["zero groups"] = zero

	huge := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(huge, MaxAggGroups+1)
	cases["over-bound group count"] = huge

	zsize := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(zsize[4:], 0)
	cases["zero contributors"] = zsize

	overlen := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(overlen[8:], 1<<30)
	cases["oversized blob length"] = overlen

	for name, frame := range cases {
		if _, _, err := DecodeGroupAgg(frame); err == nil {
			t.Errorf("%s: decode should fail", name)
		}
	}
}
