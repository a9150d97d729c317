// Package tlb models a data translation lookaside buffer. The simulated
// workloads are data-intensive, so TLB behaviour shifts absolute cycle
// counts; it is included for fidelity with the paper's Table 1 machine even
// though it rarely changes the relative ordering of the schemes.
package tlb

import (
	"fmt"
	"math/bits"
	"sort"

	"selcache/internal/mem"
)

// Config describes a TLB.
type Config struct {
	// Entries is the total number of translations held.
	Entries int
	// Assoc is the set associativity.
	Assoc int
	// PageSize is the page size in bytes (power of two).
	PageSize int
}

// Stats counts TLB activity.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

type entry struct {
	tag   uint64
	stamp uint64
	valid bool
}

// TLB is a set-associative, LRU translation buffer.
type TLB struct {
	pageBits uint
	setMask  uint64
	assoc    int
	entries  []entry
	clock    uint64
	// mru holds, per set, the way of the last hit or fill; Translate
	// probes it before the full scan. Accesses cluster on the current
	// page, so the fast path is one tag compare. The hint is advisory
	// and never affects replacement, so stats and timing are unchanged.
	mru []uint8
	// Stats accumulates access/miss counters.
	Stats Stats
}

// New builds a TLB; it panics on an invalid configuration.
func New(cfg Config) *TLB {
	sets := cfg.Entries / cfg.Assoc
	switch {
	case cfg.Entries <= 0 || cfg.Assoc <= 0:
		panic(fmt.Sprintf("tlb: bad config %+v", cfg))
	case cfg.PageSize <= 0 || cfg.PageSize&(cfg.PageSize-1) != 0:
		panic(fmt.Sprintf("tlb: page size %d not a power of two", cfg.PageSize))
	case cfg.Entries%cfg.Assoc != 0 || sets&(sets-1) != 0:
		panic(fmt.Sprintf("tlb: %d entries / %d ways does not give power-of-two sets", cfg.Entries, cfg.Assoc))
	}
	return &TLB{
		pageBits: uint(bits.TrailingZeros(uint(cfg.PageSize))),
		setMask:  uint64(sets - 1),
		assoc:    cfg.Assoc,
		entries:  make([]entry, cfg.Entries),
		mru:      make([]uint8, sets),
	}
}

// PageShift returns log2 of the page size: addr >> PageShift() is the page
// number Translate works with. The batched replay engine precomputes page
// columns with it.
func (t *TLB) PageShift() uint { return t.pageBits }

// Translate looks up the page containing a, filling on a miss, and reports
// whether the lookup hit. It is TranslateFast composed with TranslateSlow;
// hot probe sites call the pair directly with a precomputed page number
// (addr >> PageShift) so the fast half inlines (the composition itself
// exceeds the inliner's budget).
func (t *TLB) Translate(a mem.Addr) bool {
	page := uint64(a) >> t.pageBits
	return t.TranslateFast(page) || t.TranslateSlow(page)
}

// TranslateFast is the MRU fast path of a translation: it charges the
// access and resolves it with a single tag compare against the way that
// hit last. A false return has NOT completed the translation — the caller
// must immediately call TranslateSlow with the same page. The split exists
// so this path, which resolves most translations (accesses cluster on the
// current page), inlines at the probe site.
func (t *TLB) TranslateFast(page uint64) bool {
	t.Stats.Accesses++
	t.clock++
	s := int(page & t.setMask)
	e := &t.entries[s*t.assoc+int(t.mru[s])]
	if e.valid && e.tag == page {
		e.stamp = t.clock
		return true
	}
	return false
}

// TranslateSlow completes a translation TranslateFast declined: the full
// set walk, filling on a miss.
func (t *TLB) TranslateSlow(page uint64) bool {
	s := int(page & t.setMask)
	base := s * t.assoc
	set := t.entries[base : base+t.assoc]
	// One pass resolves both the hit check and the victim choice: the
	// victim is the first invalid way, else the first minimum-stamp way.
	inv, mi := -1, -1
	for i := range set {
		e := &set[i]
		if !e.valid {
			if inv < 0 {
				inv = i
			}
			continue
		}
		if e.tag == page {
			e.stamp = t.clock
			t.mru[s] = uint8(i)
			return true
		}
		if mi < 0 || e.stamp < set[mi].stamp {
			mi = i
		}
	}
	vi := inv
	if vi < 0 {
		vi = mi
	}
	t.Stats.Misses++
	set[vi] = entry{tag: page, stamp: t.clock, valid: true}
	t.mru[s] = uint8(vi)
	return false
}

// SnapshotSets returns, per set, the resident page numbers in MRU-to-LRU
// order (derived from the internal stamps, which are unique). It exists
// for the differential oracle (internal/oracle) and is cold-path only.
func (t *TLB) SnapshotSets() [][]uint64 {
	sets := int(t.setMask) + 1
	out := make([][]uint64, sets)
	type stamped struct {
		page  uint64
		stamp uint64
	}
	for s := 0; s < sets; s++ {
		set := t.entries[s*t.assoc : (s+1)*t.assoc]
		var live []stamped
		for i := range set {
			if set[i].valid {
				live = append(live, stamped{page: set[i].tag, stamp: set[i].stamp})
			}
		}
		sort.Slice(live, func(a, b int) bool { return live[a].stamp > live[b].stamp })
		pages := make([]uint64, len(live))
		for i := range live {
			pages[i] = live[i].page
		}
		out[s] = pages
	}
	return out
}
