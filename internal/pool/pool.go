// Package pool recycles dead slices — a round's ciphertext batches, its
// plaintext batches, the codec's views, its upload frames — by capacity, so
// that what a round drops is what the next one is written into.
package pool

import (
	"math/bits"
	"sync"
)

// Slices pools dead []T by capacity class: class c holds the slices whose
// capacity is in [2^c, 2^(c+1)), and a request for n values looks in class
// ⌊log₂ n⌋, so a 32-wide request is not handed a dead 2-wide slice while a
// 32-wide one waits behind it. The headers a pool keeps slices behind are
// recycled too: a Get that finds a slice hands its header to the next Put, so
// a warm cycle of the two allocates nothing. The zero value is ready, and a
// Slices is safe for concurrent use; it must not be copied after first use.
type Slices[T any] struct {
	classes [bits.UintSize]sync.Pool // *[]T
	headers sync.Pool                // *[]T, empty
}

// Get returns n values: a pooled slice of n's class, or fresh ones. A fresh
// slice, and a pooled one too short for n once extended by zero values, is
// as wide as the widest request of the class, so that a slice holds every
// size the class sees and a class shared by batches of several sizes does
// not shed values at every change of size. Pooled values are as their last
// owner left them.
func (p *Slices[T]) Get(n int) []T {
	if n == 0 {
		return make([]T, 0)
	}
	c := class(n)
	top := 2<<c - 1
	h, _ := p.classes[c].Get().(*[]T)
	if h == nil {
		return make([]T, n, top)
	}
	s := *h
	*h = nil
	p.headers.Put(h)
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, top-cap(s))...)
	}
	return s[:n]
}

// Put hands back s, whole: everything up to its capacity is the pool's, and
// nothing may use any of it afterwards.
func (p *Slices[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	h, _ := p.headers.Get().(*[]T)
	if h == nil {
		h = new([]T)
	}
	*h = s[:0]
	p.classes[class(cap(s))].Put(h)
}

// class is ⌊log₂ n⌋ for n ≥ 1.
func class(n int) int { return bits.Len(uint(n)) - 1 }
