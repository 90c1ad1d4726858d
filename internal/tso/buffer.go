package tso

// bufferedWrite is a write operation sitting in a process's write buffer.
// The awareness snapshot is taken at issue time (Definition 1 attributes a
// writer's awareness "at the time it issued that write").
type bufferedWrite struct {
	v  *Var
	x  uint64
	aw bitset
}

// writeBuffer models the per-process TSO write buffer: a FIFO with at most
// one pending write per variable. A newer write to a variable already in the
// buffer replaces the older write in place.
type writeBuffer struct {
	entries []bufferedWrite
}

// empty reports whether the buffer holds no writes.
func (b *writeBuffer) empty() bool { return len(b.entries) == 0 }

// size returns the number of buffered writes.
func (b *writeBuffer) size() int { return len(b.entries) }

// push records a write of x to v with a snapshot of the issuer's awareness
// aw, coalescing with an existing write to v (whose snapshot the new one
// replaces in place).
func (b *writeBuffer) push(v *Var, x uint64, aw bitset) {
	for i := range b.entries {
		if b.entries[i].v.index == v.index {
			b.entries[i].x = x
			copy(b.entries[i].aw, aw)
			return
		}
	}
	b.entries = append(b.entries, bufferedWrite{v: v, x: x, aw: append(bitset(nil), aw...)})
}

// head returns the oldest buffered write without removing it. It must not be
// called on an empty buffer.
func (b *writeBuffer) head() bufferedWrite { return b.entries[0] }

// pop removes and returns the oldest buffered write. It must not be called
// on an empty buffer.
func (b *writeBuffer) pop() bufferedWrite {
	w := b.entries[0]
	copy(b.entries, b.entries[1:])
	b.entries = b.entries[:len(b.entries)-1]
	return w
}

// lookup returns the pending write to v, if any.
func (b *writeBuffer) lookup(v *Var) (uint64, bool) {
	for i := range b.entries {
		if b.entries[i].v.index == v.index {
			return b.entries[i].x, true
		}
	}
	return 0, false
}

// popVar removes and returns the pending write to the variable with the
// given index, for PSO commits (writes to different variables may commit out
// of issue order). The second result is false if no such write is buffered.
func (b *writeBuffer) popVar(varIndex int) (bufferedWrite, bool) {
	for i := range b.entries {
		if b.entries[i].v.index == varIndex {
			w := b.entries[i]
			copy(b.entries[i:], b.entries[i+1:])
			b.entries = b.entries[:len(b.entries)-1]
			return w, true
		}
	}
	return bufferedWrite{}, false
}

// vars returns the indices of all buffered variables in issue order.
func (b *writeBuffer) vars() []int {
	out := make([]int, len(b.entries))
	for i := range b.entries {
		out[i] = b.entries[i].v.index
	}
	return out
}
