// Package cache implements the cache structures of the simulated memory
// hierarchy: set-associative caches with true-LRU replacement and
// write-back/write-allocate policy, fully-associative victim caches
// (Jouppi), a generic fully-associative LRU store reused by the bypass
// buffer, and a shadow classifier that splits misses into compulsory,
// capacity and conflict components (the paper reports that conflict misses
// are 53–72% of all misses in its benchmark suite, so the split is a
// first-class statistic here).
package cache

import (
	"fmt"
	"math/bits"

	"selcache/internal/cache/policy"
	"selcache/internal/mem"
)

// Config describes one cache level.
type Config struct {
	// Size is the total capacity in bytes.
	Size int
	// Assoc is the set associativity.
	Assoc int
	// Block is the line size in bytes.
	Block int
}

// Lines returns the number of lines.
func (c Config) Lines() int { return c.Size / c.Block }

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Lines() / c.Assoc }

func (c Config) validate() error {
	switch {
	case c.Size <= 0 || c.Assoc <= 0 || c.Block <= 0:
		return fmt.Errorf("cache: non-positive config %+v", c)
	case c.Block&(c.Block-1) != 0:
		return fmt.Errorf("cache: block size %d not a power of two", c.Block)
	case c.Size%c.Block != 0:
		return fmt.Errorf("cache: size %d not a multiple of block %d", c.Size, c.Block)
	case c.Lines()%c.Assoc != 0:
		return fmt.Errorf("cache: %d lines not divisible by associativity %d", c.Lines(), c.Assoc)
	case c.Sets()&(c.Sets()-1) != 0:
		return fmt.Errorf("cache: %d sets not a power of two", c.Sets())
	}
	return nil
}

// Stats collects per-cache counters.
type Stats struct {
	Accesses       uint64
	Hits           uint64
	Misses         uint64
	Evictions      uint64
	DirtyEvictions uint64
	// Fills counts line installations (refreshes of already-resident
	// blocks are not fills). The energy model charges tag+data writes
	// per fill.
	Fills uint64
}

// MissRate returns Misses/Accesses (zero when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag   uint64 // block address (addr >> blockBits)
	stamp uint64
	valid bool
	dirty bool
}

// Evicted describes a line displaced by a fill.
type Evicted struct {
	BlockAddr mem.Addr
	Dirty     bool
	Valid     bool
}

// Cache is a set-associative, true-LRU, write-back/write-allocate cache.
// Fill policy is decoupled from lookup so that a controller (internal/sim)
// can interpose bypass or victim-cache decisions between a miss and the
// corresponding fill.
type Cache struct {
	cfg       Config
	blockBits uint
	setMask   uint64
	assoc     int
	lines     []line
	clock     uint64
	// mru holds, per set, the way of the last hit or fill. Lookups probe
	// it before scanning the set: cache-friendly access streams hit the
	// same line repeatedly, so the fast path resolves most lookups with a
	// single tag compare and no slice churn. The hint is advisory — a
	// stale hint just falls through to the full scan — and it never
	// influences replacement, so timing and stats are unchanged.
	mru []uint8

	// pol, when non-nil, owns victim selection (policy.Policy); the
	// native stamps keep running (they order snapshots) but no longer
	// pick victims. nil means native true-LRU, the default.
	pol policy.Policy
	// memo, when non-nil, is the way-memoization table.
	memo *wayMemo
	// hooked is pol != nil || memo != nil. LookupFast declines every
	// probe while it is set, so LookupSlow sees them all and can consult
	// the memo and notify the policy of every hit; unhooked caches pay
	// one predictable branch for it.
	hooked bool

	// Stats accumulates hit/miss counters; the embedding controller is
	// free to reset it between measurement windows.
	Stats Stats
}

// New builds a cache; it panics on an invalid configuration, which is a
// programming error in experiment setup.
func New(cfg Config) *Cache {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	return &Cache{
		cfg:       cfg,
		blockBits: uint(bits.TrailingZeros(uint(cfg.Block))),
		setMask:   uint64(cfg.Sets() - 1),
		assoc:     cfg.Assoc,
		lines:     make([]line, cfg.Lines()),
		mru:       make([]uint8, cfg.Sets()),
	}
}

// SetPolicy attaches a replacement policy built for this cache's
// geometry. It must be called before any traffic; attaching mid-stream
// would let policy state diverge from residency.
func (c *Cache) SetPolicy(p policy.Policy) {
	c.pol = p
	c.hooked = c.pol != nil || c.memo != nil
}

// Policy returns the attached replacement policy (nil = native LRU).
func (c *Cache) Policy() policy.Policy { return c.pol }

// EnableWayMemo attaches a way-memoization table of the given size
// (power of two). Like SetPolicy, call before any traffic.
func (c *Cache) EnableWayMemo(entries int) {
	c.memo = newWayMemo(entries)
	c.hooked = true
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// BlockAddr returns the address of the block containing a.
func (c *Cache) BlockAddr(a mem.Addr) mem.Addr {
	return a &^ (mem.Addr(c.cfg.Block) - 1)
}

func (c *Cache) set(block uint64) []line {
	s := int(block & c.setMask)
	return c.lines[s*c.assoc : (s+1)*c.assoc]
}

// BlockShift returns log2 of the line size: addr >> BlockShift() is the
// block number Lookup works with. The batched replay engine precomputes
// block columns with it.
func (c *Cache) BlockShift() uint { return c.blockBits }

// Lookup probes the cache for the block containing a. On a hit it updates
// recency (and the dirty bit for writes) and returns true. On a miss it
// returns false without allocating; the caller decides whether and how to
// fill. Stats are updated either way. It is LookupFast composed with
// LookupSlow; hot probe sites call the pair directly so the fast half
// inlines (the composition itself exceeds the inliner's budget).
func (c *Cache) Lookup(a mem.Addr, write bool) bool {
	block := uint64(a) >> c.blockBits
	return c.LookupFast(block, write) || c.LookupSlow(block, write)
}

// LookupFast is the MRU fast path of a probe of block (addr >>
// BlockShift): it charges the access and resolves it with a single tag
// compare against the way that hit last. A false return has NOT completed
// the probe — the caller must immediately call LookupSlow with the same
// arguments. With a policy or way memo attached it always returns false,
// leaving the whole probe to LookupSlow. The split exists so this path,
// which resolves most probes of any access stream with locality, inlines
// at the probe site.
func (c *Cache) LookupFast(block uint64, write bool) bool {
	c.Stats.Accesses++
	c.clock++
	if c.hooked {
		return false
	}
	s := int(block & c.setMask)
	ln := &c.lines[s*c.assoc+int(c.mru[s])]
	if ln.valid && ln.tag == block {
		ln.stamp = c.clock
		if write {
			ln.dirty = true
		}
		c.Stats.Hits++
		return true
	}
	return false
}

// LookupSlow completes a probe LookupFast declined: the way-memo probe
// (when a memo is attached), else the full set walk; on a hit it updates
// recency, the dirty bit and the MRU hint and notifies the policy and
// memo, otherwise it charges the miss. A memo hit resolves the probe with
// no tag comparisons (the memo is sound: entries are invalidated the
// moment their line leaves) and leaves exactly the state the walk would
// have, so timing and statistics are identical with the memo on or off.
func (c *Cache) LookupSlow(block uint64, write bool) bool {
	s := int(block & c.setMask)
	set := c.lines[s*c.assoc : (s+1)*c.assoc]
	w := -1
	if c.memo != nil {
		if m, ok := c.memo.probe(block); ok {
			if !set[m].valid || set[m].tag != block {
				panic("cache: way-memo entry points at a non-matching line")
			}
			w = m
		}
	}
	if w < 0 {
		for i := range set {
			if set[i].valid && set[i].tag == block {
				w = i
				break
			}
		}
		if w < 0 {
			c.Stats.Misses++
			return false
		}
	}
	ln := &set[w]
	ln.stamp = c.clock
	if write {
		ln.dirty = true
	}
	c.mru[s] = uint8(w)
	c.Stats.Hits++
	if c.pol != nil {
		c.pol.Hit(s, w)
	}
	if c.memo != nil {
		c.memo.install(block, w)
	}
	return true
}

// Contains reports whether the block containing a is resident, without
// touching recency or statistics.
func (c *Cache) Contains(a mem.Addr) bool {
	block := uint64(a) >> c.blockBits
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].tag == block {
			return true
		}
	}
	return false
}

func lruIndex(set []line) int {
	vi := 0
	for i := range set {
		if !set[i].valid {
			return i
		}
		if set[i].stamp < set[vi].stamp {
			vi = i
		}
	}
	return vi
}

// victimIndex is the single victim-selection seam: every fill path
// (Fill, FillMiss, VictimWay/FillWay) routes through it, so
// "the victim choice is exactly Fill's" holds by construction rather
// than by parallel re-implementations. With a policy attached the policy
// owns the choice; otherwise it is the native first-invalid-else-
// minimum-stamp walk.
func (c *Cache) victimIndex(s int, set []line) int {
	if c.pol != nil {
		return c.pol.Victim(s)
	}
	return lruIndex(set)
}

// Fill installs the block containing a, evicting the victim line of its
// set if necessary, and returns the displaced line. dirty marks the
// incoming line dirty (write-allocate stores). Filling an already-
// resident block just refreshes it.
func (c *Cache) Fill(a mem.Addr, dirty bool) Evicted {
	block := uint64(a) >> c.blockBits
	s := int(block & c.setMask)
	set := c.lines[s*c.assoc : (s+1)*c.assoc]
	for i := range set {
		if set[i].valid && set[i].tag == block {
			c.clock++
			set[i].stamp = c.clock
			set[i].dirty = set[i].dirty || dirty
			c.mru[s] = uint8(i)
			if c.pol != nil {
				c.pol.Hit(s, i)
			}
			return Evicted{}
		}
	}
	return c.fillWay(block, c.victimIndex(s, set), dirty)
}

// FillMiss is Fill for a block the caller knows is absent: the Lookup that
// just missed was on this same set and nothing has touched the set since
// (L2 traffic, victim-cache probes and bypass-buffer activity do not).
// Skipping the residency scan roughly halves the fill cost, and fills sit
// on the miss path of every simulated access.
func (c *Cache) FillMiss(a mem.Addr, dirty bool) Evicted {
	block := uint64(a) >> c.blockBits
	s := int(block & c.setMask)
	return c.fillWay(block, c.victimIndex(s, c.set(block)), dirty)
}

// VictimWay returns the way a Fill for a would displace, the block address
// it holds and whether that line is valid, without modifying the cache. A
// caller that goes on to fill hands the way back to FillWay instead of
// paying the victim scan twice. The triple is only meaningful while the
// set is untouched.
func (c *Cache) VictimWay(a mem.Addr) (way int, victim mem.Addr, valid bool) {
	block := uint64(a) >> c.blockBits
	set := c.set(block)
	vi := c.victimIndex(int(block&c.setMask), set)
	if !set[vi].valid {
		return vi, 0, false
	}
	return vi, mem.Addr(set[vi].tag << c.blockBits), true
}

// FillWay completes a fill into the way VictimWay chose. The caller
// guarantees the block is absent and the set untouched since VictimWay.
func (c *Cache) FillWay(a mem.Addr, way int, dirty bool) Evicted {
	return c.fillWay(uint64(a)>>c.blockBits, way, dirty)
}

// fillWay installs block into the given way of its set, charging eviction
// statistics for a displaced valid line. It is the single line-install
// site: policy Fill notifications, way-memo maintenance (invalidate the
// evicted block's entry, then memoize the incoming block) and the Fills
// counter all live here.
func (c *Cache) fillWay(block uint64, way int, dirty bool) Evicted {
	c.clock++
	s := int(block & c.setMask)
	ln := &c.lines[s*c.assoc+way]
	ev := Evicted{}
	if ln.valid {
		ev = Evicted{
			BlockAddr: mem.Addr(ln.tag << c.blockBits),
			Dirty:     ln.dirty,
			Valid:     true,
		}
		c.Stats.Evictions++
		if ln.dirty {
			c.Stats.DirtyEvictions++
		}
		if c.memo != nil {
			c.memo.invalidate(ln.tag)
		}
	}
	*ln = line{tag: block, stamp: c.clock, valid: true, dirty: dirty}
	c.mru[s] = uint8(way)
	c.Stats.Fills++
	if c.pol != nil {
		c.pol.Fill(s, way, block)
	}
	if c.memo != nil {
		c.memo.install(block, way)
	}
	return ev
}

// Remove invalidates the block containing a if resident, returning its
// dirty bit. Victim-cache swaps use it.
func (c *Cache) Remove(a mem.Addr) (dirty, ok bool) {
	block := uint64(a) >> c.blockBits
	s := int(block & c.setMask)
	set := c.lines[s*c.assoc : (s+1)*c.assoc]
	for i := range set {
		if set[i].valid && set[i].tag == block {
			d := set[i].dirty
			set[i] = line{}
			if c.pol != nil {
				c.pol.Invalidate(s, i)
			}
			if c.memo != nil {
				c.memo.invalidate(block)
			}
			return d, true
		}
	}
	return false, false
}

// Flush invalidates every line and returns the number of dirty lines that a
// real machine would have written back.
func (c *Cache) Flush() int {
	dirty := 0
	for i := range c.lines {
		if c.lines[i].valid {
			if c.lines[i].dirty {
				dirty++
			}
			if c.pol != nil {
				c.pol.Invalidate(i/c.assoc, i%c.assoc)
			}
		}
		c.lines[i] = line{}
	}
	if c.memo != nil {
		c.memo.flush()
	}
	return dirty
}
