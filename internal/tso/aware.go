package tso

import "math/bits"

// bitset is a set of small non-negative integers, one bit per member in
// 64-bit words. It backs every set the simulator updates per event: the
// awareness sets of Definition 1 and the per-variable accessor sets (over
// process IDs, so ⌈N/64⌉ words), and the per-process remote-read sets (over
// variable indices).
//
// Awareness sets do not stay small: in the lower-bound construction a
// process becomes aware of every finished process, so at N=256 a set holds
// up to 255 IDs, and every read takes a union and every write a snapshot.
// As words, a union is ⌈N/64⌉ ORs and a snapshot a copy of as many words,
// whatever the sets hold.
type bitset []uint64

// newBitset returns an empty set that holds 0..n-1 without growing.
func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

// has reports whether i is a member; a negative i never is.
func (s bitset) has(i int) bool {
	w := uint(i) >> 6
	return w < uint(len(s)) && s[w]&(1<<(uint(i)&63)) != 0
}

// set adds i, widening the set if it is too narrow to hold it.
func (s *bitset) set(i int) {
	w := i >> 6
	for len(*s) <= w {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << (uint(i) & 63)
}

// or merges o into s in place. s must be at least as wide as o, which holds
// for sets sized by newBitset with the same n.
func (s bitset) or(o bitset) {
	for i, w := range o {
		s[i] |= w
	}
}

// members returns the members in ascending order, as process IDs.
func (s bitset) members() []ProcID {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	out := make([]ProcID, 0, n)
	for i, w := range s {
		for w != 0 {
			out = append(out, ProcID(i<<6+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return out
}
