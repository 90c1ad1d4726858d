package vmprog

import "math/bits"

// fpslot is one slot of a fingerprint index: a state's 64-bit fingerprint,
// its shard-local dense id plus one, and the layer that discovered it. The
// id is stored plus one so that 0 marks an empty slot: the fingerprint 0 is
// a legal hashWords value and is stored like any other.
type fpslot struct {
	fp    uint64
	ref   uint32
	layer int32
}

// fpindexMin is the slot count of an empty index.
const fpindexMin = 1 << 8

// fpindex maps fingerprints to (dense id, discovery layer) by open
// addressing with linear probing over 16-byte slots. A fingerprint's home
// slot is taken from its high bits, because the frontier engine picks the
// shard from the low end (h % shards); hashWords finishes with mix64, so
// both ends are well mixed. The table doubles at 3/4 load. Entries are
// never removed, so a probe ends at the first empty slot.
type fpindex struct {
	slots []fpslot
	shift uint // 64 - log2(len(slots))
	n     int  // occupied slots
}

// home returns the slot where the probe for fp starts.
func (t *fpindex) home(fp uint64) int { return int(fp >> t.shift) }

// find returns the slot holding fp, or, when fp is absent, the empty slot
// where putAt would store it.
func (t *fpindex) find(fp uint64) (int, bool) {
	if t.slots == nil {
		t.resize(fpindexMin)
	}
	mask := len(t.slots) - 1
	for i := t.home(fp); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 {
			return i, false
		}
		if s.fp == fp {
			return i, true
		}
	}
}

// get returns the dense id and discovery layer recorded for fp.
func (t *fpindex) get(fp uint64) (id uint32, layer int32, ok bool) {
	if t.slots == nil {
		return 0, 0, false
	}
	i, ok := t.find(fp)
	if !ok {
		return 0, 0, false
	}
	id, layer = t.at(i)
	return id, layer, true
}

// at returns the dense id and discovery layer stored in the occupied slot
// i.
func (t *fpindex) at(i int) (id uint32, layer int32) {
	s := &t.slots[i]
	return s.ref - 1, s.layer
}

// putAt records fp, absent from the index, in slot i, the slot find
// returned for it, and doubles the table once it is 3/4 full.
func (t *fpindex) putAt(i int, fp uint64, id uint32, layer int32) {
	t.slots[i] = fpslot{fp: fp, ref: id + 1, layer: layer}
	t.n++
	if 4*t.n >= 3*len(t.slots) {
		t.resize(2 * len(t.slots))
	}
}

// resize moves every entry into a table of size slots (a power of two),
// re-probing each stored fingerprint from its new home.
func (t *fpindex) resize(size int) {
	old := t.slots
	t.slots = make([]fpslot, size)
	t.shift = uint(65 - bits.Len(uint(size)))
	mask := size - 1
	for _, s := range old {
		if s.ref == 0 {
			continue
		}
		i := t.home(s.fp)
		for t.slots[i].ref != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// each calls f for every recorded fingerprint, in slot order.
func (t *fpindex) each(f func(fp uint64, id uint32, layer int32)) {
	for _, s := range t.slots {
		if s.ref != 0 {
			f(s.fp, s.ref-1, s.layer)
		}
	}
}
