package cache

import (
	"testing"
	"testing/quick"

	"selcache/internal/mem"
)

func smallCache() *Cache {
	// 4 sets x 2 ways x 16-byte blocks = 128 bytes.
	return New(Config{Size: 128, Assoc: 2, Block: 16})
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Size: 0, Assoc: 1, Block: 16},
		{Size: 128, Assoc: 0, Block: 16},
		{Size: 128, Assoc: 2, Block: 0},
		{Size: 128, Assoc: 2, Block: 24}, // not power of two
		{Size: 120, Assoc: 2, Block: 16}, // size not multiple of block
		{Size: 128, Assoc: 3, Block: 16}, // lines not divisible
		{Size: 96, Assoc: 2, Block: 16},  // sets not power of two
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d (%+v): expected panic", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestLookupMissThenFillHits(t *testing.T) {
	c := smallCache()
	if c.Lookup(0x100, false) {
		t.Fatal("cold lookup hit")
	}
	c.Fill(0x100, false)
	if !c.Lookup(0x100, false) {
		t.Fatal("lookup after fill missed")
	}
	if !c.Lookup(0x10F, false) {
		t.Fatal("same-block lookup missed")
	}
	if c.Lookup(0x110, false) {
		t.Fatal("next-block lookup hit")
	}
	if c.Stats.Accesses != 4 || c.Stats.Hits != 2 || c.Stats.Misses != 2 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := smallCache()
	// Three blocks mapping to set 0 (addresses 64 bytes apart: 4 sets x 16B).
	a0, a1, a2 := mem.Addr(0x000), mem.Addr(0x040), mem.Addr(0x080)
	c.Fill(a0, false)
	c.Fill(a1, false)
	c.Lookup(a0, false) // a0 now MRU; a1 is LRU
	ev := c.Fill(a2, false)
	if !ev.Valid || ev.BlockAddr != a1 {
		t.Fatalf("evicted %+v, want block %#x", ev, a1)
	}
	if !c.Contains(a0) || c.Contains(a1) || !c.Contains(a2) {
		t.Fatal("wrong residency after eviction")
	}
}

func TestDirtyEvictionAndWriteback(t *testing.T) {
	c := smallCache()
	c.Fill(0x000, true) // dirty fill
	c.Fill(0x040, false)
	ev := c.Fill(0x080, false) // evicts 0x000
	if !ev.Valid || !ev.Dirty {
		t.Fatalf("expected dirty eviction, got %+v", ev)
	}
	if c.Stats.DirtyEvictions != 1 {
		t.Fatalf("dirty evictions %d", c.Stats.DirtyEvictions)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := smallCache()
	c.Fill(0x000, false)
	c.Lookup(0x000, true) // write hit
	c.Fill(0x040, false)
	ev := c.Fill(0x080, false)
	if !ev.Dirty {
		t.Fatal("write hit did not mark line dirty")
	}
}

func TestVictimBlockPredictsFill(t *testing.T) {
	c := smallCache()
	if _, _, valid := c.VictimWay(0x000); valid {
		t.Fatal("cold set has a victim")
	}
	c.Fill(0x000, false)
	c.Fill(0x040, false)
	_, pred, valid := c.VictimWay(0x080)
	if !valid {
		t.Fatal("full set has no victim")
	}
	ev := c.Fill(0x080, false)
	if ev.BlockAddr != pred {
		t.Fatalf("VictimWay predicted %#x, Fill evicted %#x", pred, ev.BlockAddr)
	}
}

func TestRemove(t *testing.T) {
	c := smallCache()
	c.Fill(0x000, true)
	dirty, ok := c.Remove(0x000)
	if !ok || !dirty {
		t.Fatalf("Remove = (%v, %v)", dirty, ok)
	}
	if c.Contains(0x000) {
		t.Fatal("block still resident after Remove")
	}
	if _, ok := c.Remove(0x000); ok {
		t.Fatal("second Remove succeeded")
	}
}

func TestFlush(t *testing.T) {
	c := smallCache()
	c.Fill(0x000, true)
	c.Fill(0x040, false)
	if d := c.Flush(); d != 1 {
		t.Fatalf("Flush returned %d dirty lines", d)
	}
	for s, set := range c.SnapshotSets() {
		if len(set) != 0 {
			t.Fatalf("set %d holds %d lines after flush", s, len(set))
		}
	}
}

func TestFillRefreshExisting(t *testing.T) {
	c := smallCache()
	c.Fill(0x000, false)
	ev := c.Fill(0x000, true)
	if ev.Valid {
		t.Fatal("refill evicted something")
	}
	c.Fill(0x040, false)
	ev = c.Fill(0x080, false)
	if !ev.Dirty {
		t.Fatal("refill did not accumulate dirty bit")
	}
}

// TestLRUStackProperty: with a single set, a fully-associative cache
// obeys the LRU stack property — after any access sequence the resident
// blocks are exactly the assoc most recently used distinct blocks.
func TestLRUStackProperty(t *testing.T) {
	f := func(seq []uint8) bool {
		const ways = 4
		c := New(Config{Size: ways * 16, Assoc: ways, Block: 16})
		var order []uint64 // distinct blocks, most recent first
		for _, b := range seq {
			block := uint64(b % 16)
			addr := mem.Addr(block * 16)
			if !c.Lookup(addr, false) {
				c.Fill(addr, false)
			}
			for i, x := range order {
				if x == block {
					order = append(order[:i], order[i+1:]...)
					break
				}
			}
			order = append([]uint64{block}, order...)
		}
		n := len(order)
		if n > ways {
			n = ways
		}
		for _, b := range order[:n] {
			if !c.Contains(mem.Addr(b * 16)) {
				return false
			}
		}
		for _, b := range order[n:] {
			if c.Contains(mem.Addr(b * 16)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
