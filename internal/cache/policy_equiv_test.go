package cache

import (
	"reflect"
	"testing"

	"selcache/internal/cache/policy"
	"selcache/internal/mem"
)

// lruPolicy is true LRU re-expressed through the policy seam: victim is
// the first invalid way, else the minimum-stamp (least recently touched)
// way. It is the reference the native stamps are checked against: both
// clocks observe the same events in the same order and only relative
// stamp order matters, so the choices must agree bit for bit. hits
// counts Hit notifications: LRU's choices cannot see a missed hit on the
// most recent way, but hit-counting policies such as EHC can.
type lruPolicy struct {
	assoc int
	clock uint64
	hits  uint64
	lines []lruLine
}

// lruLine is lruPolicy's per-way state: a recency stamp drawn from a
// private clock that ticks on every Hit and Fill. Stamps are unique, so
// the minimum is unambiguous.
type lruLine struct {
	stamp uint64
	valid bool
}

func newLRUPolicy(sets, assoc int) *lruPolicy {
	return &lruPolicy{assoc: assoc, lines: make([]lruLine, sets*assoc)}
}

func (p *lruPolicy) Hit(set, way int) {
	p.hits++
	p.clock++
	p.lines[set*p.assoc+way].stamp = p.clock
}

func (p *lruPolicy) Fill(set, way int, block uint64) {
	p.clock++
	p.lines[set*p.assoc+way] = lruLine{stamp: p.clock, valid: true}
}

func (p *lruPolicy) Invalidate(set, way int) {
	p.lines[set*p.assoc+way] = lruLine{}
}

func (p *lruPolicy) Victim(set int) int {
	ws := p.lines[set*p.assoc : (set+1)*p.assoc]
	vi := 0
	for i := range ws {
		if !ws[i].valid {
			return i
		}
		if ws[i].stamp < ws[vi].stamp {
			vi = i
		}
	}
	return vi
}

var _ policy.Policy = (*lruPolicy)(nil)

// TestLRUVictim hand-drives the reference LRU policy through fills and
// hits on one 4-way set and checks every victim decision.
func TestLRUVictim(t *testing.T) {
	p := newLRUPolicy(2, 4)
	// Empty set: victims are the invalid ways in way order.
	for want := 0; want < 4; want++ {
		if got := p.Victim(0); got != want {
			t.Fatalf("fill %d: victim way %d, want first invalid %d", want, got, want)
		}
		p.Fill(0, want, uint64(100+want))
	}
	// Full set, fill order 0,1,2,3: way 0 is LRU.
	if got := p.Victim(0); got != 0 {
		t.Fatalf("full set victim %d, want 0", got)
	}
	// Touch way 0: way 1 becomes LRU.
	p.Hit(0, 0)
	if got := p.Victim(0); got != 1 {
		t.Fatalf("after hit on way 0: victim %d, want 1", got)
	}
	// Invalidate way 2: invalid ways win immediately.
	p.Invalidate(0, 2)
	if got := p.Victim(0); got != 2 {
		t.Fatalf("after invalidating way 2: victim %d, want 2", got)
	}
	// The other set is independent and still empty.
	if got := p.Victim(1); got != 0 {
		t.Fatalf("untouched set victim %d, want 0", got)
	}
}

// TestLRUPolicyMatchesNativeStamps is the metamorphic equality check for
// the probe hooks: a cache with the reference LRU policy, a way memo, or
// both attached must make bit-identical decisions to the native stamp
// path — same lookup outcomes, same victims, same evictions, same
// statistics, same snapshot content — on a pseudorandom stream of every
// mutating operation. Probes go through LookupFast || LookupSlow exactly
// as the machine issues them, so the fast half stepping aside for hooked
// caches is covered with each hook alone and with both.
func TestLRUPolicyMatchesNativeStamps(t *testing.T) {
	cfg := Config{Size: 1 << 12, Assoc: 4, Block: 32}
	for _, tc := range []struct {
		name         string
		policy, memo bool
	}{
		{"policy", true, false},
		{"waymemo", false, true},
		{"policy+waymemo", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			native := New(cfg)
			hooked := New(cfg)
			if tc.policy {
				hooked.SetPolicy(newLRUPolicy(cfg.Sets(), cfg.Assoc))
			}
			if tc.memo {
				hooked.EnableWayMemo(64)
			}
			lookup := func(c *Cache, a mem.Addr, write bool) bool {
				b := uint64(a) >> c.BlockShift()
				return c.LookupFast(b, write) || c.LookupSlow(b, write)
			}

			s := uint64(0xA5A5)
			next := func() uint64 {
				s ^= s << 13
				s ^= s >> 7
				s ^= s << 17
				return s * 0x2545F4914F6CDD1D
			}
			// Footprint 4× the cache so every set churns.
			addr := func(r uint64) mem.Addr { return mem.Addr((r >> 16) % (4 << 12) &^ 7) }

			for i := 0; i < 200000; i++ {
				r := next()
				a := addr(r)
				switch r % 100 {
				case 96, 97: // remove (victim-cache swap path)
					d1, ok1 := native.Remove(a)
					d2, ok2 := hooked.Remove(a)
					if d1 != d2 || ok1 != ok2 {
						t.Fatalf("op %d: Remove(%#x) native (%v,%v) hooked (%v,%v)", i, a, d1, ok1, d2, ok2)
					}
				case 98: // flush
					if f1, f2 := native.Flush(), hooked.Flush(); f1 != f2 {
						t.Fatalf("op %d: Flush native %d hooked %d", i, f1, f2)
					}
				case 99: // victim prediction (must not perturb state)
					w1, v1, ok1 := native.VictimWay(a)
					w2, v2, ok2 := hooked.VictimWay(a)
					if w1 != w2 || v1 != v2 || ok1 != ok2 {
						t.Fatalf("op %d: VictimWay(%#x) native (%d,%#x,%v) hooked (%d,%#x,%v)", i, a, w1, v1, ok1, w2, v2, ok2)
					}
				default:
					write := r>>32%10 < 3
					h1 := lookup(native, a, write)
					h2 := lookup(hooked, a, write)
					if h1 != h2 {
						t.Fatalf("op %d: Lookup(%#x) native %v hooked %v", i, a, h1, h2)
					}
					if !h1 {
						var e1, e2 Evicted
						// Exercise both fill entry points.
						if r>>40%2 == 0 {
							e1, e2 = native.FillMiss(a, write), hooked.FillMiss(a, write)
						} else {
							e1, e2 = native.Fill(a, write), hooked.Fill(a, write)
						}
						if e1 != e2 {
							t.Fatalf("op %d: Fill(%#x) native %+v hooked %+v", i, a, e1, e2)
						}
					}
				}
				if tc.memo && i%5000 == 0 {
					if err := hooked.CheckWayMemo(); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				}
			}
			// Fills in this stream follow a miss, so none is a refresh:
			// every policy Hit notification is a lookup hit, and every
			// lookup hit must reach the policy.
			if pol, ok := hooked.Policy().(*lruPolicy); ok && pol.hits != hooked.Stats.Hits {
				t.Fatalf("policy saw %d hits, cache counted %d", pol.hits, hooked.Stats.Hits)
			}
			if native.Stats != hooked.Stats {
				t.Fatalf("stats diverged:\n native %+v\n hooked %+v", native.Stats, hooked.Stats)
			}
			if a, b := native.SnapshotSets(), hooked.SnapshotSets(); !reflect.DeepEqual(a, b) {
				t.Fatal("snapshot content diverged")
			}
			if tc.memo {
				if err := hooked.CheckWayMemo(); err != nil {
					t.Fatal(err)
				}
				st, _ := hooked.WayMemoCounters()
				if st.Probes != hooked.Stats.Accesses || st.Hits == 0 {
					t.Fatalf("memo probes %d hits %d, accesses %d", st.Probes, st.Hits, hooked.Stats.Accesses)
				}
			}
		})
	}
}

// TestWayMemoLeavesProbeOutcomesUnchanged runs the same stream through a
// plain cache and a memoized one: every probe outcome, eviction and
// statistic must match, the memo must stay sound, and its accounting
// must conserve.
func TestWayMemoLeavesProbeOutcomesUnchanged(t *testing.T) {
	cfg := Config{Size: 1 << 12, Assoc: 4, Block: 32}
	plain := New(cfg)
	memo := New(cfg)
	memo.EnableWayMemo(64)

	s := uint64(0x5A5A)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s * 0x2545F4914F6CDD1D
	}
	for i := 0; i < 200000; i++ {
		r := next()
		a := mem.Addr((r >> 16) % (2 << 12) &^ 7)
		write := r>>32%10 < 3
		h1 := plain.Lookup(a, write)
		h2 := memo.Lookup(a, write)
		if h1 != h2 {
			t.Fatalf("op %d: Lookup(%#x) plain %v memoized %v", i, a, h1, h2)
		}
		if !h1 {
			if e1, e2 := plain.FillMiss(a, write), memo.FillMiss(a, write); e1 != e2 {
				t.Fatalf("op %d: fill plain %+v memoized %+v", i, a, e1)
			}
		}
		if i%5000 == 0 {
			if err := memo.CheckWayMemo(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if plain.Stats != memo.Stats {
		t.Fatalf("stats diverged:\n plain %+v\n memoized %+v", plain.Stats, memo.Stats)
	}
	if a, b := plain.SnapshotSets(), memo.SnapshotSets(); !reflect.DeepEqual(a, b) {
		t.Fatal("snapshot content diverged")
	}
	if err := memo.CheckWayMemo(); err != nil {
		t.Fatal(err)
	}
	st, ok := memo.WayMemoCounters()
	if !ok || st.Probes != memo.Stats.Accesses {
		t.Fatalf("memo probes %d (ok=%v) != accesses %d", st.Probes, ok, memo.Stats.Accesses)
	}
	if st.Hits == 0 {
		t.Fatal("stream produced zero memo hits")
	}
}
