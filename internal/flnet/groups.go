package flnet

import (
	"encoding/binary"
	"fmt"
)

// Grouped-aggregate framing for group-wise robust secure aggregation: the
// broadcast of a defended round carries G per-group sub-aggregates, each
// with the number of clients securely summed into it, so every decrypting
// client can dequantize per group and re-run the robust combiner. The group
// metadata (count and sizes) is part of the round's wire payload — and,
// via the journaled aggregate record, of its durable metadata.

// KindGroupAgg is the message kind of a grouped aggregate broadcast; plain
// (undefended) rounds keep broadcasting "agg".
const KindGroupAgg = "gagg"

// MaxAggGroups bounds the declared group count of a grouped frame. The
// header is untrusted input: without a bound a corrupt frame could declare
// ~4 billion groups and size the decoder's allocations off an attacker
// integer.
const MaxAggGroups = 1 << 16

// AppendGroupAgg appends to dst the frame of per-group aggregate blobs with
// their contributor counts, growing it once. Layout: u32 G, then
// G×(u32 size, u32 blobLen), then the blobs.
func AppendGroupAgg(dst []byte, sizes []int, blobs [][]byte) ([]byte, error) {
	if len(sizes) == 0 || len(sizes) != len(blobs) {
		return nil, fmt.Errorf("flnet: group frame with %d sizes for %d blobs", len(sizes), len(blobs))
	}
	if len(sizes) > MaxAggGroups {
		return nil, fmt.Errorf("flnet: %d groups exceed the frame bound %d", len(sizes), MaxAggGroups)
	}
	total := 4 + 8*len(sizes)
	for _, b := range blobs {
		total += len(b)
	}
	buf := append(make([]byte, 0, len(dst)+total), dst...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sizes)))
	for g, size := range sizes {
		if size < 1 {
			return nil, fmt.Errorf("flnet: group %d has contributor count %d", g, size)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(size))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blobs[g])))
	}
	for _, b := range blobs {
		buf = append(buf, b...)
	}
	return buf, nil
}

// DecodeGroupAgg parses a frame built by AppendGroupAgg. The header is
// untrusted: group counts, contributor counts, and blob lengths are all
// validated against the frame's actual size before anything is allocated
// from them. Returned blobs are copies — safe to hold after the transport
// recycles its receive buffer.
func DecodeGroupAgg(b []byte) (sizes []int, blobs [][]byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("flnet: group frame truncated header (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 {
		return nil, nil, fmt.Errorf("flnet: group frame with zero groups")
	}
	if n > MaxAggGroups {
		return nil, nil, fmt.Errorf("flnet: group frame declares %d groups (bound %d)", n, MaxAggGroups)
	}
	need := 4 + 8*int(n)
	if len(b) < need {
		return nil, nil, fmt.Errorf("flnet: group frame truncated directory (%d bytes for %d groups)", len(b), n)
	}
	sizes = make([]int, n)
	lens := make([]int, n)
	remaining := len(b) - need
	for g := 0; g < int(n); g++ {
		size := binary.LittleEndian.Uint32(b[4+8*g:])
		bl := binary.LittleEndian.Uint32(b[8+8*g:])
		if size == 0 {
			return nil, nil, fmt.Errorf("flnet: group %d declares zero contributors", g)
		}
		if int(bl) > remaining {
			return nil, nil, fmt.Errorf("flnet: group %d declares %d blob bytes, %d remain", g, bl, remaining)
		}
		remaining -= int(bl)
		sizes[g] = int(size)
		lens[g] = int(bl)
	}
	if remaining != 0 {
		return nil, nil, fmt.Errorf("flnet: group frame has %d trailing bytes", remaining)
	}
	blobs = make([][]byte, n)
	off := need
	for g := 0; g < int(n); g++ {
		blobs[g] = append([]byte(nil), b[off:off+lens[g]]...)
		off += lens[g]
	}
	return sizes, blobs, nil
}
