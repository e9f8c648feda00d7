package flnet

import (
	"encoding/binary"
	"fmt"
)

// Partial-aggregate framing for hierarchical (tree) aggregation: an interior
// node that has HE-summed its fan-out of children forwards exactly one
// partial up a level instead of relaying every child ciphertext. The frame
// carries the tree level it leaves, so receivers can attribute the traffic
// per level and reject frames claiming impossible depths.

// KindPartialAgg is the message kind carrying one forwarded tree partial.
const KindPartialAgg = "pagg"

// MaxTreeLevel bounds the declared level of a partial-aggregate frame. The
// level arrives from the (untrusted) wire; any fan-out ≥ 2 tree over a
// feasible cohort is far shallower than this.
const MaxTreeLevel = 64

// EncodePartialAgg frames one forwarded partial: the tree level it leaves
// plus the encoded ciphertext batch.
func EncodePartialAgg(level uint32, body []byte) []byte {
	buf := make([]byte, 0, 4+len(body))
	buf = binary.LittleEndian.AppendUint32(buf, level)
	return append(buf, body...)
}

// DecodePartialAgg parses a frame built by EncodePartialAgg. The header is
// untrusted: a level beyond MaxTreeLevel is corrupt. The returned body is a
// copy: partials outlive the transport's reusable receive buffer.
func DecodePartialAgg(b []byte) (level uint32, body []byte, err error) {
	if len(b) < 4 {
		return 0, nil, fmt.Errorf("flnet: partial-aggregate truncated header (%d bytes)", len(b))
	}
	level = binary.LittleEndian.Uint32(b)
	if level > MaxTreeLevel {
		return 0, nil, fmt.Errorf("flnet: partial-aggregate level %d out of range", level)
	}
	return level, append([]byte(nil), b[4:]...), nil
}
