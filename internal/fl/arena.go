package fl

import (
	"sync"

	"flbooster/internal/flnet"
	"flbooster/internal/mpint"
	"flbooster/internal/paillier"
)

// wireArena pools the round path's codec scratch: the nat slices the wire
// codec builds and the decoded per-client ciphertext batches. Only
// provably-dead scratch is pooled — message payload bytes are never reused,
// because the transport may hold a delivered payload beyond the round — so
// pooling changes allocation counts, never results.
type wireArena struct {
	nats sync.Pool // *[]mpint.Nat
	cts  sync.Pool // *[]paillier.Ciphertext
}

// arena is shared by every federation and aggregation in the process; the
// pools are safe for concurrent use.
var arena wireArena

// EncodeCiphertexts frames a ciphertext batch for the wire (flnet.EncodeNats
// framing). The returned payload is always fresh bytes.
func EncodeCiphertexts(cts []paillier.Ciphertext) []byte {
	nats := arena.getNats(len(cts))
	for _, c := range cts {
		nats = append(nats, c.C)
	}
	payload := flnet.EncodeNats(nats)
	arena.putNats(nats)
	return payload
}

// appendCiphertexts appends the EncodeCiphertexts framing of cts to dst.
func appendCiphertexts(dst []byte, cts []paillier.Ciphertext) []byte {
	nats := arena.getNats(len(cts))
	for _, c := range cts {
		nats = append(nats, c.C)
	}
	dst = flnet.AppendNats(dst, nats)
	arena.putNats(nats)
	return dst
}

// DecodeCiphertexts parses a batch framed by EncodeCiphertexts into a pooled
// slice; whoever retires the batch may hand it back with ReleaseCiphertexts.
func DecodeCiphertexts(b []byte) ([]paillier.Ciphertext, error) {
	nats, err := flnet.DecodeNatsInto(arena.getNats(0), b)
	if err != nil {
		return nil, err
	}
	cts := arena.getCts(len(nats))
	for _, n := range nats {
		cts = append(cts, paillier.Ciphertext{C: n})
	}
	arena.putNats(nats)
	return cts, nil
}

// ReleaseCiphertexts returns a dead batch to the pool. The caller must hold
// the only reference to the slice (the values it carried may live on).
func ReleaseCiphertexts(cts []paillier.Ciphertext) { arena.putCts(cts) }

func (a *wireArena) getNats(n int) []mpint.Nat {
	if p, _ := a.nats.Get().(*[]mpint.Nat); p != nil && cap(*p) >= n {
		return (*p)[:0]
	}
	return make([]mpint.Nat, 0, n)
}

func (a *wireArena) putNats(s []mpint.Nat) {
	for i := range s {
		s[i] = nil
	}
	s = s[:0]
	a.nats.Put(&s)
}

func (a *wireArena) getCts(n int) []paillier.Ciphertext {
	if p, _ := a.cts.Get().(*[]paillier.Ciphertext); p != nil && cap(*p) >= n {
		return (*p)[:0]
	}
	return make([]paillier.Ciphertext, 0, n)
}

func (a *wireArena) putCts(s []paillier.Ciphertext) {
	for i := range s {
		s[i] = paillier.Ciphertext{}
	}
	s = s[:0]
	a.cts.Put(&s)
}
