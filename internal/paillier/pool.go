package paillier

import (
	"flbooster/internal/mpint"
	"flbooster/internal/pool"
)

// batches pools dead ciphertext batches, each value's limbs kept behind its
// empty Nat: the one pool a round's batches are drawn from and handed back to
// (DESIGN §15), classed by capacity so a batch is drawn from dead batches of
// its own width. A batch comes out with every value empty; whoever fills it
// writes into those limbs where they are long enough (mpint's Into forms,
// mpint.SetBytes) and allocates only where they are not.
var batches pool.Slices[Ciphertext]

// DrawBatch returns a batch of n ciphertexts, every value empty, behind which
// sit the limbs of a dead batch where the pool has one of n's width.
func DrawBatch(n int) []Ciphertext { return batches.Get(n) }

// ReleaseBatch hands a dead batch back to the pool: its slice and its values'
// limbs, zeroed first, so no plaintext or aggregate waits in the pool and a
// value read after its release reads zero. cts must be a whole batch — not a
// window of one still in use — and nothing may read or keep any of its values
// afterwards: the next batch drawn writes into those limbs. A release
// allocates nothing.
func ReleaseBatch(cts []Ciphertext) {
	full := cts[:cap(cts)]
	for i := range full {
		c := full[i].C
		clear(c[:cap(c)])
		full[i].C = c[:0]
	}
	batches.Put(cts)
}

// ReleasePlaintexts hands the limbs of dead plaintexts back to the pool — the
// limbs a DecryptVec takes out of it — behind the values of a batch of their
// count, each value keeping the wider of its own limbs and the plaintext's.
// Nothing may read or keep any of pts afterwards.
func ReleasePlaintexts(pts []mpint.Nat) {
	b := DrawBatch(len(pts))
	for i, x := range pts {
		if cap(x) > cap(b[i].C) {
			b[i].C = x
		}
	}
	ReleaseBatch(b)
}
