// Package bitset provides a dense, fixed-capacity bitset used for the
// per-(job, partition) active-vertex sets of the CGraph engines.
//
// The zero value is an empty set of capacity zero; use New for a sized set.
// Methods are not safe for concurrent mutation; engines shard sets per
// partition so only one worker mutates a set at a time.
package bitset

import "math/bits"

const wordBits = 64

// Set is a dense bitset over the integers [0, Cap).
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty set with capacity for n bits.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Cap returns the capacity in bits.
func (s *Set) Cap() int { return s.n }

// Set sets bit i. It panics if i is out of range.
func (s *Set) Set(i int) {
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set.
func (s *Set) Any() bool {
	for _, w := range s.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Reset clears all bits.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// SetAll sets every bit in [0, Cap).
func (s *Set) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	// Mask off the bits beyond capacity in the last word.
	if rem := s.n % wordBits; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(rem)) - 1
	}
}

// CopyFrom makes s an exact copy of other. The sets must have the same capacity.
func (s *Set) CopyFrom(other *Set) {
	copy(s.words, other.words)
}

// Swap exchanges the contents of s and other in O(1).
func (s *Set) Swap(other *Set) {
	s.words, other.words = other.words, s.words
	s.n, other.n = other.n, s.n
}

// Words returns the set's backing words: bit i is bit i%64 of word i/64, and
// the bits beyond Cap are zero. It is a view, for loops that combine sets a
// word at a time; writing through it writes the set.
func (s *Set) Words() []uint64 { return s.words }

// Range calls fn for every set bit in ascending order. If fn returns false,
// iteration stops.
func (s *Set) Range(fn func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + tz) {
				return
			}
			w &^= 1 << uint(tz)
		}
	}
}

// NextSet returns the index of the first set bit at or after i, or -1 if none.
func (s *Set) NextSet(i int) int {
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}
