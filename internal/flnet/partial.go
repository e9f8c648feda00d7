package flnet

import "encoding/binary"

// Partial-aggregate framing for hierarchical (tree) aggregation: an interior
// node that has HE-summed its fan-out of children forwards exactly one
// partial up a level instead of relaying every child ciphertext. The frame
// carries the tree level it leaves. Partials are framed only to be priced as
// interior-link traffic (fl.Context.NewAggTree): the tree's nodes live in one
// process, so no frame is ever sent or parsed.

// EncodePartialAgg frames one forwarded partial: the tree level it leaves
// plus the encoded ciphertext batch.
func EncodePartialAgg(level uint32, body []byte) []byte {
	buf := make([]byte, 0, 4+len(body))
	buf = binary.LittleEndian.AppendUint32(buf, level)
	return append(buf, body...)
}
