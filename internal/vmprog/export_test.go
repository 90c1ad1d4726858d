package vmprog

// Hooks for the external canonicalizer tests (canon_test.go), which live in
// package vmprog_test so that they can import internal/analysis/por for the
// symmetry facts.

// CanonEncode runs e's canonicalizer: it appends the canonical encoding of s
// to dst and returns it with the index of the permutation that produced it.
func CanonEncode(e *Engine, dst []uint64, s *State) ([]uint64, int) {
	enc, pi := e.red.canonEncode(dst, s)
	return enc, int(pi)
}

// NumPerms returns the number of permutations e canonicalizes over, in the
// order CanonEncode indexes them; 0 without a symmetry group.
func NumPerms(e *Engine) int {
	if e.red == nil || e.red.g == nil {
		return 0
	}
	return len(e.red.g.perms)
}

// ImageEncode appends to dst the encoding of the image of s under the
// permutation of index pi, built the brute-force way: the state's dead
// registers zeroed, a whole permuted State built by applyPerm, and that
// encoded with dead registers read as zero.
func ImageEncode(e *Engine, dst []uint64, s *State, pi int) []uint64 {
	r := e.red
	c := s.Clone()
	r.zeroDead(c)
	return encodeLive(dst, r.applyPerm(c, r.g.perms[pi]), r.f.LiveRegs)
}
