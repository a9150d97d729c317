// Package policy defines the pluggable replacement-policy seam of the
// set-associative caches in internal/cache. A Policy owns the per-set
// recency/prediction state that victim selection reads; the cache keeps
// the tags, dirty bits and statistics and notifies the policy of the
// three events that can change replacement state: a hit, a fill, and an
// invalidation.
//
// One policy is provided: EHC, Expected-Hit-Count replacement (Vakil
// Ghahani et al., arXiv 1808.05024), which predicts each line's
// remaining hits from the hit counts of its previous generations and
// evicts the way with the fewest expected future hits. True LRU is not a
// Policy: it is the cache's native stamp path, used whenever no policy
// is attached. A re-expression of it through this seam lives in the
// internal/cache tests as the reference the native stamps are checked
// against.
package policy

// Policy is the replacement-policy interface. Way indices are physical
// positions within a set, exactly as the cache numbers them; the cache
// guarantees Hit and Invalidate are only called for ways it previously
// announced via Fill (or that are invalid, for Invalidate after Flush).
//
// Victim must return an invalid way when one exists (the first, in way
// order) so that policies never evict live data from a non-full set;
// otherwise it returns the policy's choice. Victim does not modify
// policy state — the cache follows it with Fill on the chosen way.
type Policy interface {
	// Hit records a lookup hit (or a fill of an already-resident block)
	// on the given way.
	Hit(set, way int)
	// Fill records the installation of block into the given way. Any
	// previous occupant's generation ends here.
	Fill(set, way int, block uint64)
	// Invalidate records the removal of the given way's line (victim
	// cache swaps, flushes). Invalid ways are ignored.
	Invalidate(set, way int)
	// Victim returns the way a fill into set should displace: the first
	// invalid way, else the policy's minimum-value way.
	Victim(set int) int
}

// ehcLine is EHC's per-way state: the resident block, its recency stamp
// (LRU tie-break), and the hits accumulated in the current generation (a
// generation is one residency, fill to eviction).
type ehcLine struct {
	block uint64
	stamp uint64
	hits  uint64
	valid bool
}

// ehcHist is one slot of the direct-mapped hit-count history table. pred
// is the running average of the block's past per-generation hit counts.
type ehcHist struct {
	tag   uint64
	pred  uint64
	valid bool
}

// EHC implements Expected-Hit-Count replacement (arXiv 1808.05024): each
// line counts its hits per generation; when a generation ends the count
// trains a direct-mapped history table (averaged with the previous
// prediction on a tag match, replacing the slot otherwise). The victim
// is the way with the fewest expected remaining hits, where a line's
// expectation is max(predicted − observed, 0); ties break to the least
// recently used way. Integer arithmetic throughout, so the naive oracle
// reference model mirrors it exactly.
type EHC struct {
	assoc    int
	clock    uint64
	lines    []ehcLine
	hist     []ehcHist
	histMask uint64
}

// NewEHC builds the EHC policy for a sets×assoc cache with a
// histEntries-slot history table (power of two; panics otherwise, a
// configuration error).
func NewEHC(sets, assoc, histEntries int) *EHC {
	if histEntries <= 0 || histEntries&(histEntries-1) != 0 {
		panic("policy: EHC history entries must be a positive power of two")
	}
	return &EHC{
		assoc:    assoc,
		lines:    make([]ehcLine, sets*assoc),
		hist:     make([]ehcHist, histEntries),
		histMask: uint64(histEntries - 1),
	}
}

// Hit implements Policy.
func (p *EHC) Hit(set, way int) {
	p.clock++
	ln := &p.lines[set*p.assoc+way]
	ln.stamp = p.clock
	ln.hits++
}

// Fill implements Policy: the occupant's generation (if any) trains the
// history, then the new block starts a fresh generation at zero hits.
func (p *EHC) Fill(set, way int, block uint64) {
	ln := &p.lines[set*p.assoc+way]
	if ln.valid {
		p.endGeneration(ln)
	}
	p.clock++
	*ln = ehcLine{block: block, stamp: p.clock, valid: true}
}

// Invalidate implements Policy. An invalidation (victim-cache swap,
// flush) ends the line's residency, so its generation trains the history
// just like an eviction-by-fill.
func (p *EHC) Invalidate(set, way int) {
	ln := &p.lines[set*p.assoc+way]
	if !ln.valid {
		return
	}
	p.endGeneration(ln)
	*ln = ehcLine{}
}

func (p *EHC) endGeneration(ln *ehcLine) {
	h := &p.hist[ln.block&p.histMask]
	if h.valid && h.tag == ln.block {
		h.pred = (h.pred + ln.hits) / 2
		return
	}
	*h = ehcHist{tag: ln.block, pred: ln.hits, valid: true}
}

// expected returns the line's expected remaining hits: the history
// prediction for its block minus the hits already observed this
// generation, floored at zero. A block with no history predicts zero —
// never seen to re-hit, first in line to go.
func (p *EHC) expected(ln *ehcLine) uint64 {
	h := &p.hist[ln.block&p.histMask]
	if h.valid && h.tag == ln.block && h.pred > ln.hits {
		return h.pred - ln.hits
	}
	return 0
}

// Victim implements Policy: first invalid way, else the minimum
// (expected hits, stamp) way — strict lexicographic minimum, so among
// equal expectations the least recently used way loses.
func (p *EHC) Victim(set int) int {
	ws := p.lines[set*p.assoc : (set+1)*p.assoc]
	vi := -1
	var ve, vs uint64
	for i := range ws {
		if !ws[i].valid {
			return i
		}
		e := p.expected(&ws[i])
		if vi < 0 || e < ve || (e == ve && ws[i].stamp < vs) {
			vi, ve, vs = i, e, ws[i].stamp
		}
	}
	return vi
}

// EHCLineSnapshot is one valid line of an EHC state snapshot: the block
// it tracks and the hits of its current generation.
type EHCLineSnapshot struct {
	Block uint64
	Hits  uint64
}

// EHCHistSnapshot is one valid history-table slot.
type EHCHistSnapshot struct {
	Slot int
	Tag  uint64
	Pred uint64
}

// SnapshotSets returns, per set, the valid lines in MRU-to-LRU order
// (stamps are unique). The differential oracle compares this against its
// naive reference model's recency lists.
func (p *EHC) SnapshotSets() [][]EHCLineSnapshot {
	sets := len(p.lines) / p.assoc
	out := make([][]EHCLineSnapshot, sets)
	for s := 0; s < sets; s++ {
		ws := p.lines[s*p.assoc : (s+1)*p.assoc]
		// Selection by descending stamp: assoc is small, and snapshots are
		// cold-path only.
		var idx []int
		for i := range ws {
			if ws[i].valid {
				idx = append(idx, i)
			}
		}
		for a := 0; a < len(idx); a++ {
			best := a
			for b := a + 1; b < len(idx); b++ {
				if ws[idx[b]].stamp > ws[idx[best]].stamp {
					best = b
				}
			}
			idx[a], idx[best] = idx[best], idx[a]
		}
		snap := make([]EHCLineSnapshot, len(idx))
		for i, w := range idx {
			snap[i] = EHCLineSnapshot{Block: ws[w].block, Hits: ws[w].hits}
		}
		out[s] = snap
	}
	return out
}

// SnapshotHistory returns the valid history slots in slot order.
func (p *EHC) SnapshotHistory() []EHCHistSnapshot {
	var out []EHCHistSnapshot
	for i := range p.hist {
		if p.hist[i].valid {
			out = append(out, EHCHistSnapshot{Slot: i, Tag: p.hist[i].tag, Pred: p.hist[i].pred})
		}
	}
	return out
}
