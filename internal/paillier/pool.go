package paillier

import "sync"

// batches pools dead ciphertext batches, each value's limbs kept behind its
// empty Nat: the one pool a round's batches are drawn from and handed back to
// (DESIGN §15). A batch comes out with every value empty; whoever fills it
// writes into those limbs where they are long enough (mpint's Into forms,
// mpint.SetBytes) and allocates only where they are not.
var batches sync.Pool // of *[]Ciphertext

// DrawBatch returns a batch of n ciphertexts, every value empty, behind which
// sit the limbs of a dead batch where the pool has one.
func DrawBatch(n int) []Ciphertext {
	p, _ := batches.Get().(*[]Ciphertext)
	if p == nil {
		return make([]Ciphertext, n)
	}
	s := *p
	if cap(s) < n {
		s = append(s[:cap(s)], make([]Ciphertext, n-cap(s))...)
	}
	return s[:n]
}

// ReleaseBatch hands a dead batch back to the pool: its slice and its values'
// limbs, zeroed first, so no plaintext or aggregate waits in the pool and a
// value read after its release reads zero. cts must be a whole batch — not a
// window of one still in use — and nothing may read or keep any of its values
// afterwards: the next batch drawn writes into those limbs.
func ReleaseBatch(cts []Ciphertext) {
	if cap(cts) == 0 {
		return
	}
	cts = cts[:cap(cts)]
	for i := range cts {
		c := cts[i].C
		clear(c[:cap(c)])
		cts[i].C = c[:0]
	}
	cts = cts[:0]
	batches.Put(&cts)
}
