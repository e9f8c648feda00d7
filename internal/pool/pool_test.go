//go:build !race

// Under the race detector sync.Pool drops a quarter of its Puts on purpose;
// these pins of what a Put hands back run in the plain test pass.

package pool

import "testing"

// TestSliceServesItsWholeClass: a fresh slice is as wide as the widest
// request of its class, so once it is back it serves every size the class
// sees from the same backing array — a class shared by batches of 4 and of 7
// does not trade values for fresh ones at every change of size.
func TestSliceServesItsWholeClass(t *testing.T) {
	var p Slices[int]
	for n := 1; n <= 40; n++ {
		if s := p.Get(n); len(s) != n || cap(s) != 2<<class(n)-1 {
			t.Fatalf("Get(%d): len %d, cap %d, want %d and %d", n, len(s), cap(s), n, 2<<class(n)-1)
		}
	}
	s := p.Get(4)
	s[0] = 7
	p.Put(s)
	got := p.Get(7)
	if &got[0] != &s[0] || got[0] != 7 {
		t.Fatal("a 7-wide request of the class did not get the 4-wide slice's array back")
	}
	p.Put(got)
	if got := p.Get(5); &got[0] != &s[0] {
		t.Fatal("a 5-wide request did not get the class's slice back")
	}
}
