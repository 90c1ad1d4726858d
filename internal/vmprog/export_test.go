package vmprog

// Hooks between the internal tests and the external ones (canon_test.go,
// expand_test.go), which live in package vmprog_test so that they can
// import internal/analysis/por for the reduction facts.

// testFacts computes a program's reduction facts for the internal tests:
// internal/analysis/por's Facts, which they cannot import because por
// imports this package. canon_test.go's init installs it; both kinds of
// test file build into one test binary.
var testFacts func(p *Program, n int) (*PruneFacts, error)

// SetTestFacts installs f as the internal tests' source of reduction facts.
func SetTestFacts(f func(p *Program, n int) (*PruneFacts, error)) { testFacts = f }

// BFSStates returns up to limit states of e's unreduced state graph under
// crash, in breadth-first order from the initial state (bfsStates).
func BFSStates(e *Engine, crash CrashOpts, limit int) []*State { return bfsStates(e, crash, limit) }

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

// Expander is the frontier engines' successor path, for the external
// benchmark.
type Expander struct{ x expander }

// NewExpander returns an expander for e with reducer scratch of its own.
func NewExpander(e *Engine) *Expander { return &Expander{x: expander{eng: e.workerClone()}} }

// Expand loads the state whose canonical encoding is enc and generates its
// successors under every enabled decision. It returns their number.
func (x *Expander) Expand(enc []uint64) int {
	x.x.load(enc)
	x.x.all(CrashOpts{})
	return len(x.x.kids)
}
