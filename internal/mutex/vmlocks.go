package mutex

import (
	"errors"
	"sync"

	"priceadaptive/internal/tso"
	"priceadaptive/internal/vmprog"
)

// The locks in this file are VM programs of internal/vmprog run through
// vmprog.AdaptLock: one definition serves this package's goroutine
// simulator, the fast model-checking engine and the static analyzer. Each
// keeps the variable names of its former goroutine implementation
// (prefix+var, e.g. "bakery.number[3]"), so traces and tables read the same.

// NewBakery allocates an n-process Lamport bakery lock (vmprog.Bakery): the
// constant-fence, non-adaptive reference point.
func NewBakery(mem *tso.Memory, n int) (Lock, error) {
	return vmLock(mem, n, "bakery", "bakery.", func(n int) (*vmprog.Program, error) {
		return vmprog.Bakery(n, false)
	})
}

// NewBakeryWeakDoorway allocates the deliberately broken bakery without the
// ticket-publication fence, a model-checking target; vmprog.Bakery says why
// it is unsafe even under TSO.
func NewBakeryWeakDoorway(mem *tso.Memory, n int) (Lock, error) {
	return vmLock(mem, n, "bakery-weak", "bakery.", func(n int) (*vmprog.Program, error) {
		return vmprog.Bakery(n, true)
	})
}

// NewPeterson allocates a fenced two-process Peterson lock
// (vmprog.Peterson); any other n is an error.
func NewPeterson(mem *tso.Memory, n int) (Lock, error) {
	return vmLock(mem, n, "peterson", "peterson.", func(n int) (*vmprog.Program, error) {
		return petersonProgram(n, true)
	})
}

// NewPetersonNoFences allocates the deliberately broken fence-free Peterson
// lock (experiment E8).
func NewPetersonNoFences(mem *tso.Memory, n int) (Lock, error) {
	return vmLock(mem, n, "peterson-nofence", "peterson.", func(n int) (*vmprog.Program, error) {
		return petersonProgram(n, false)
	})
}

// NewTAS allocates a test-and-set lock (vmprog.TAS).
func NewTAS(mem *tso.Memory, n int) (Lock, error) {
	return vmLock(mem, n, "tas", "tas.", func(int) (*vmprog.Program, error) { return vmprog.TAS() })
}

// NewTTAS allocates a test-and-test-and-set lock (vmprog.TTAS).
func NewTTAS(mem *tso.Memory, n int) (Lock, error) {
	return vmLock(mem, n, "ttas", "ttas.", func(int) (*vmprog.Program, error) { return vmprog.TTAS() })
}

// NewFilter allocates an n-process filter lock (vmprog.Filter); n must be
// at least 2.
func NewFilter(mem *tso.Memory, n int) (Lock, error) {
	return vmLock(mem, n, "filter", "filter.", vmprog.Filter)
}

// NewBurnsLynch allocates an n-process Burns-Lynch one-bit lock
// (vmprog.BurnsLynch).
func NewBurnsLynch(mem *tso.Memory, n int) (Lock, error) {
	return vmLock(mem, n, "burnslynch", "bl.", vmprog.BurnsLynch)
}

// NewCASChain allocates a one-shot adaptive CAS-chain lock for n processes
// (vmprog.CASChain).
func NewCASChain(mem *tso.Memory, n int) (Lock, error) {
	l, err := vmLock(mem, n, "caschain", "caschain.", vmprog.CASChain)
	if err != nil {
		return nil, err
	}
	return oneShotLock{l}, nil
}

// programs caches each lock's VM program per size, keyed by progKey: the
// replay checker makes a simulator, and so a lock, for every schedule it
// explores.
var programs sync.Map

type progKey struct {
	name string
	n    int
}

// vmLock runs the VM program build(n) as the lock name on mem, its
// variables named prefix+var.
func vmLock(mem *tso.Memory, n int, name, prefix string, build func(n int) (*vmprog.Program, error)) (Lock, error) {
	key := progKey{name, n}
	p, ok := programs.Load(key)
	if !ok {
		built, err := build(n)
		if err != nil {
			return nil, err
		}
		p, _ = programs.LoadOrStore(key, built)
	}
	l, err := vmprog.AdaptLock(name, prefix, p.(*vmprog.Program), mem, n)
	if err != nil {
		return nil, err
	}
	return l, nil
}

// petersonProgram builds the two-process Peterson program, rejecting any
// other process count.
func petersonProgram(n int, fences bool) (*vmprog.Program, error) {
	if n != 2 {
		return nil, errors.New("mutex: peterson requires exactly 2 processes")
	}
	return vmprog.Peterson(fences)
}

// oneShotLock marks a lock that supports a single passage per process.
type oneShotLock struct{ embeddedLock }

// embeddedLock names Lock for embedding: an embedded Lock would be a field
// called Lock, hiding the method of that name.
type embeddedLock = Lock

// OneShot implements OneShot.
func (oneShotLock) OneShot() bool { return true }
