package vmprog

import (
	"math/rand"
	"testing"
)

// TestFingerprintIndex drives the seen-set's fingerprint index against a
// map reference. The keys include the fingerprint 0 (a legal hash that the
// empty-slot marker must not shadow), a run of fingerprints sharing one
// home slot at every table size up to 2^20 slots, a run whose home is the
// last slot, so its cluster wraps past the end into slot 0 where the
// fingerprint 0 lives, and enough seeded random keys to double the table
// three times. After every put the index must return each key's id and
// layer and miss every key not put yet.
func TestFingerprintIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var keys []uint64
	keys = append(keys, 0)
	for i := 0; i < 40; i++ {
		keys = append(keys, 0xabcde<<44|rng.Uint64()>>20)      // one home slot
		keys = append(keys, ^uint64(1<<20-1)|rng.Uint64()>>44) // home: the last slot
	}
	for len(keys) <= 4*fpindexMin*3/4 {
		keys = append(keys, rng.Uint64())
	}
	rng.Shuffle(len(keys)-1, func(i, j int) { keys[i+1], keys[j+1] = keys[j+1], keys[i+1] })
	ref := make(map[uint64]int)
	for _, k := range keys {
		if _, dup := ref[k]; dup {
			t.Fatalf("test keys repeat %#x", k)
		}
		ref[k] = -1
	}

	var idx fpindex
	if _, _, ok := idx.get(0); ok {
		t.Fatal("empty index reports the fingerprint 0")
	}
	doublings := 0
	for i, k := range keys {
		size := len(idx.slots)
		slot, found := idx.find(k)
		if found {
			t.Fatalf("put %d: find(%#x) hits before the key is put", i, k)
		}
		idx.putAt(slot, k, uint32(i), int32(i%97))
		ref[k] = i
		if size != 0 && len(idx.slots) != size {
			doublings++
		}
		for j, kj := range keys {
			id, layer, ok := idx.get(kj)
			switch {
			case j <= i && (!ok || id != uint32(j) || layer != int32(j%97)):
				t.Fatalf("after put %d: get(%#x) = %d, %d, %v; want %d, %d, true", i, kj, id, layer, ok, j, j%97)
			case j > i && ok:
				t.Fatalf("after put %d: get(%#x) hits a key not put yet", i, kj)
			}
		}
		if 4*idx.n >= 3*len(idx.slots) {
			t.Fatalf("after put %d: %d of %d slots used, above 3/4", i, idx.n, len(idx.slots))
		}
	}
	if doublings < 3 {
		t.Fatalf("the table doubled %d times, want at least 3", doublings)
	}
	wrapped := 0
	for _, k := range keys {
		if i, _ := idx.find(k); i < idx.home(k) {
			wrapped++
		}
	}
	if wrapped == 0 {
		t.Fatal("no cluster wraps past the last slot")
	}
	seen := 0
	idx.each(func(fp uint64, id uint32, layer int32) {
		if want, ok := ref[fp]; !ok || uint32(want) != id || int32(want%97) != layer {
			t.Fatalf("each visits %#x with %d, %d", fp, id, layer)
		}
		seen++
	})
	if seen != len(keys) || idx.n != len(keys) {
		t.Fatalf("each visits %d entries and the index counts %d, want %d", seen, idx.n, len(keys))
	}
}
