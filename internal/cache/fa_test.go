package cache

import (
	"reflect"
	"testing"
	"testing/quick"

	"selcache/internal/mem"
)

func TestFABasics(t *testing.T) {
	f := NewFA(2)
	if _, hit := f.Probe(1, false); hit {
		t.Fatal("cold probe hit")
	}
	f.Insert(1, false)
	f.Insert(2, true)
	if d, hit := f.Probe(2, false); !hit || !d {
		t.Fatalf("probe 2 = (%v,%v)", d, hit)
	}
	// 2 is MRU; inserting 3 evicts 1.
	k, d, ev := f.Insert(3, false)
	if !ev || k != 1 || d {
		t.Fatalf("evicted (%d,%v,%v), want (1,false,true)", k, d, ev)
	}
	if f.Contains(1) || !f.Contains(2) || !f.Contains(3) {
		t.Fatal("wrong residency")
	}
}

func TestFAProbeSetsDirty(t *testing.T) {
	f := NewFA(2)
	f.Insert(7, false)
	f.Probe(7, true)
	d, ok := f.Take(7)
	if !ok || !d {
		t.Fatalf("Take = (%v,%v), want dirty hit", d, ok)
	}
	if f.Len() != 0 {
		t.Fatal("Take left entry resident")
	}
}

func TestFAInsertExistingRefreshes(t *testing.T) {
	f := NewFA(2)
	f.Insert(1, false)
	f.Insert(2, false)
	f.Insert(1, true) // refresh 1, now MRU; 2 is LRU
	k, _, ev := f.Insert(3, false)
	if !ev || k != 2 {
		t.Fatalf("evicted %d, want 2", k)
	}
	d, _ := f.Take(1)
	if !d {
		t.Fatal("refresh lost dirty bit")
	}
}

func TestFAKeysOrder(t *testing.T) {
	f := NewFA(3)
	f.Insert(1, false)
	f.Insert(2, false)
	f.Insert(3, false)
	f.Probe(1, false)
	got := f.Snapshot()
	want := []FASnapshot{{Key: 1}, {Key: 3}, {Key: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot() = %v, want %v", got, want)
	}
}

// TestFAMatchesReferenceModel drives the intrusive-list implementation and
// a trivial slice-based LRU model with the same operation stream.
func TestFAMatchesReferenceModel(t *testing.T) {
	type model struct {
		keys  []uint64 // MRU first
		dirty map[uint64]bool
	}
	f := func(ops []uint16) bool {
		const cap = 8
		fa := NewFA(cap)
		m := model{dirty: map[uint64]bool{}}
		touch := func(k uint64) {
			for i, x := range m.keys {
				if x == k {
					m.keys = append(m.keys[:i], m.keys[i+1:]...)
					break
				}
			}
			m.keys = append([]uint64{k}, m.keys...)
		}
		for _, op := range ops {
			k := uint64(op % 32)
			switch (op / 32) % 3 {
			case 0: // probe
				_, hit := fa.Probe(k, false)
				_, mhit := m.dirty[k]
				if hit != mhit {
					return false
				}
				if hit {
					touch(k)
				}
			case 1: // insert
				fa.Insert(k, op%2 == 0)
				if _, present := m.dirty[k]; present {
					m.dirty[k] = m.dirty[k] || op%2 == 0
					touch(k)
				} else {
					if len(m.keys) == cap {
						lru := m.keys[cap-1]
						m.keys = m.keys[:cap-1]
						delete(m.dirty, lru)
					}
					m.dirty[k] = op%2 == 0
					touch(k)
				}
			case 2: // take
				_, ok := fa.Take(k)
				_, mok := m.dirty[k]
				if ok != mok {
					return false
				}
				if ok {
					delete(m.dirty, k)
					for i, x := range m.keys {
						if x == k {
							m.keys = append(m.keys[:i], m.keys[i+1:]...)
							break
						}
					}
				}
			}
			if fa.Len() != len(m.dirty) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVictimCache(t *testing.T) {
	v := NewVictim(2, 32)
	if _, hit := v.Probe(0x100); hit {
		t.Fatal("cold probe hit")
	}
	v.Insert(0x100, true)
	d, hit := v.Probe(0x105) // same 32-byte block
	if !hit || !d {
		t.Fatalf("probe = (%v,%v)", d, hit)
	}
	// Probe removes (swap semantics).
	if _, hit := v.Probe(0x100); hit {
		t.Fatal("block still resident after swap-out")
	}
	v.Insert(0x100, false)
	v.Insert(0x200, false)
	ev := v.Insert(0x300, true)
	if !ev.Valid || ev.BlockAddr != 0x100 {
		t.Fatalf("evicted %+v, want block 0x100", ev)
	}
	if v.Stats.Probes != 3 || v.Stats.Hits != 1 || v.Stats.Inserts != 4 {
		t.Fatalf("stats %+v", v.Stats)
	}
}

func TestClassifierConservation(t *testing.T) {
	cfg := Config{Size: 128, Assoc: 2, Block: 16}
	c := New(cfg)
	cl := NewClassifier(cfg)
	// Pseudo-random but deterministic stream.
	x := uint64(12345)
	misses := uint64(0)
	for i := 0; i < 5000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := mem.Addr(x>>40) & 0x3FF
		hit := c.Lookup(addr, false)
		if !hit {
			c.Fill(addr, false)
			misses++
		}
		cl.Observe(addr, !hit)
	}
	if got := cl.Stats.Total(); got != misses {
		t.Fatalf("classified %d misses, cache saw %d", got, misses)
	}
}

func TestClassifierKinds(t *testing.T) {
	cfg := Config{Size: 64, Assoc: 1, Block: 16} // direct-mapped, 4 sets
	c := New(cfg)
	cl := NewClassifier(cfg)
	access := func(a mem.Addr) MissKind {
		hit := c.Lookup(a, false)
		if !hit {
			c.Fill(a, false)
		}
		return cl.Observe(a, !hit)
	}
	if k := access(0x000); k != MissCompulsory {
		t.Fatalf("first touch: %v", k)
	}
	// 0x040 maps to the same set (4 sets x 16B = 64B period).
	if k := access(0x040); k != MissCompulsory {
		t.Fatalf("first touch of conflicting block: %v", k)
	}
	// 0x000 was evicted by a conflict; the 4-line shadow still holds it.
	if k := access(0x000); k != MissConflict {
		t.Fatalf("conflict miss classified as %v", k)
	}
	// Touch enough distinct blocks to exceed total capacity, then return:
	// capacity miss.
	for i := 1; i <= 8; i++ {
		access(mem.Addr(0x100 + i*16))
	}
	if k := access(0x040); k != MissCapacity {
		t.Fatalf("capacity miss classified as %v", k)
	}
}
