package sim

import (
	"math"

	"selcache/internal/cache"
	"selcache/internal/cache/policy"
	"selcache/internal/energy"
	"selcache/internal/mat"
	"selcache/internal/mem"
	"selcache/internal/tlb"
)

// Write-back bus-occupancy charges, in cycles. Write-backs are buffered and
// drain in the background on a real machine; they cost bus occupancy rather
// than full latency.
const (
	wbL1Occupancy = 0.5
	wbL2Occupancy = 1.5
)

// RunStats is everything a single simulation run measures.
type RunStats struct {
	Config    string
	Mechanism HWKind

	Cycles       uint64
	Instructions uint64
	MemOps       uint64
	Markers      uint64

	L1, L2           cache.Stats
	L1Class, L2Class cache.ClassifyStats
	TLB              tlb.Stats

	Victim1, Victim2 cache.VictimStats
	MAT              mat.Stats
	Buffer           mat.BufferStats
	// Bypasses counts L1 fills diverted to the bypass buffer;
	// SpatialPrefetches counts the extra-block fetches triggered by the
	// SLDT.
	Bypasses          uint64
	SpatialPrefetches uint64
	// OnCycles approximates cycles spent with the mechanism active.
	OnCycles uint64

	// WayMemo1 and WayMemo2 count way-memoization activity per level
	// (zero unless Options.WayMemo).
	WayMemo1, WayMemo2 cache.WayMemoStats
	// Energy is the per-run energy breakdown (zero unless
	// Options.Energy).
	Energy energy.Stats

	// WallNanos is the host wall-clock time the run took, filled in by the
	// driver (core.Run). It is the one nondeterministic field of RunStats:
	// comparisons between runs must zero it first.
	WallNanos int64
}

// IPC returns instructions per cycle.
func (s RunStats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// EventsPerSecond returns simulated events (instructions, which include
// memory operations and markers) per host wall-clock second, or zero when
// WallNanos was never filled in.
func (s RunStats) EventsPerSecond() float64 {
	if s.WallNanos <= 0 {
		return 0
	}
	return float64(s.Instructions) / (float64(s.WallNanos) * 1e-9)
}

// Machine is one configured simulated processor. It implements mem.Emitter;
// feed it a program with loopir.Run and call Finish for the statistics.
type Machine struct {
	cfg Config
	opt Options

	l1, l2     *cache.Cache
	cls1, cls2 *cache.Classifier
	dtlb       *tlb.TLB

	matT *mat.Table
	sldt *mat.SLDT
	buf  *mat.Buffer
	vc1  *cache.Victim
	vc2  *cache.Victim

	hwOn bool

	cycles        float64
	lastOnStamp   float64
	onCycles      float64
	instructions  uint64
	memOps        uint64
	markers       uint64
	bypasses      uint64
	prefetches    uint64
	l2Misses      uint64
	outstanding   []float64
	maxCompletion float64

	// cached per-config constants
	invIssue   float64
	invPorts   float64
	l1Transfer float64
	l2Transfer float64

	// Batched-path state (see batch.go). The shift amounts mirror the
	// components' own (l1/l2 block, TLB page, MAT macro-block); colBlock
	// and colPage are the pure phase's scratch columns, allocated on first
	// AccessBatch so scalar-only machines (the oracle, live interpretation)
	// never pay for them.
	l1Shift, pageShift uint
	colBlock, colPage  []uint64
}

// NewMachine builds a machine for one run.
func NewMachine(cfg Config, opt Options) *Machine {
	opt = opt.withDefaults()
	m := &Machine{
		cfg:      cfg,
		opt:      opt,
		l1:       cache.New(cfg.L1),
		l2:       cache.New(cfg.L2),
		dtlb:     tlb.New(cfg.TLB),
		hwOn:     opt.InitiallyOn,
		invIssue: 1 / float64(cfg.IssueWidth),
		invPorts: 1 / float64(cfg.MemPorts),
	}
	m.l1Transfer = float64(cfg.L1.Block / cfg.BusBytes)
	m.l2Transfer = float64(cfg.L2.Block / cfg.BusBytes)
	m.outstanding = make([]float64, 0, cfg.MLP)
	if opt.Classify {
		m.cls1 = cache.NewClassifier(cfg.L1)
		m.cls2 = cache.NewClassifier(cfg.L2)
	}
	switch opt.Mechanism {
	case HWBypass:
		m.matT = mat.NewTable(opt.MAT)
		m.sldt = mat.NewSLDT(opt.MAT, cfg.L1.Block)
		m.buf = mat.NewBuffer(opt.MAT.BufferWords)
	case HWVictim:
		m.vc1 = cache.NewVictim(opt.L1VictimEntries, cfg.L1.Block)
		m.vc2 = cache.NewVictim(opt.L2VictimEntries, cfg.L2.Block)
	}
	if opt.Policy == PolicyEHC {
		m.l1.SetPolicy(policy.NewEHC(cfg.L1.Sets(), cfg.L1.Assoc, opt.EHCHistoryEntries))
		m.l2.SetPolicy(policy.NewEHC(cfg.L2.Sets(), cfg.L2.Assoc, opt.EHCHistoryEntries))
	}
	if opt.WayMemo {
		m.l1.EnableWayMemo(opt.L1MemoEntries)
		m.l2.EnableWayMemo(opt.L2MemoEntries)
	}
	m.l1Shift = m.l1.BlockShift()
	m.pageShift = m.dtlb.PageShift()
	return m
}

// HWActive reports the current state of the run-time optimization flag.
func (m *Machine) HWActive() bool { return m.hwOn }

// Compute implements mem.Emitter.
func (m *Machine) Compute(n int) {
	m.instructions += uint64(n)
	m.cycles += float64(n) * m.invIssue
}

// Marker implements mem.Emitter: an activate/deactivate instruction.
func (m *Machine) Marker(on bool) {
	m.instructions++
	m.markers++
	m.cycles += m.invIssue
	if !m.opt.HonorMarkers {
		return
	}
	if on && !m.hwOn {
		m.lastOnStamp = m.cycles
	}
	if !on && m.hwOn {
		m.onCycles += m.cycles - m.lastOnStamp
	}
	m.hwOn = on
}

// stall charges a miss of the given latency against the pipeline: a
// dependent fraction (Alpha) serializes, the rest overlaps subject to the
// MLP limit on outstanding misses.
func (m *Machine) stall(lat float64) {
	now := m.cycles
	// Retire completed misses by compacting in place, tracking the
	// earliest survivor in the same pass (the first minimum, matching a
	// left-to-right scan). The explicit index loop keeps the tracking
	// list — at most MLP entries — free of slice-append bookkeeping;
	// stall sits on every miss of every simulated access.
	live := m.outstanding
	out := live[:cap(live)]
	k := 0
	ei := -1
	min := 0.0
	for _, t := range live {
		if t > now {
			if ei < 0 || t < min {
				ei = k
				min = t
			}
			out[k] = t
			k++
		}
	}
	if k >= m.cfg.MLP {
		// All miss-handling slots busy: wait for the earliest.
		if min > now {
			now = min
		}
		copy(out[ei:k-1], out[ei+1:k])
		k--
	}
	completion := now + lat
	out[k] = completion
	m.outstanding = out[:k+1]
	if completion > m.maxCompletion {
		m.maxCompletion = completion
	}
	m.cycles = now + m.cfg.Alpha*lat
}

// Access implements mem.Emitter: one data load or store.
func (m *Machine) Access(addr mem.Addr, size uint8, write bool) {
	_ = size
	m.access1(addr, write, uint64(addr)>>m.l1Shift, uint64(addr)>>m.pageShift)
}

// access1 is the stateful body of Access with the pure per-event math — the
// L1 block and TLB page numbers — hoisted out. The scalar path computes
// them inline above; the batched path (AccessBatch) precomputes whole
// columns of them. Both paths run this exact code, so batched and scalar
// replays agree bit for bit by construction.
func (m *Machine) access1(addr mem.Addr, write bool, block, page uint64) {
	m.instructions++
	m.memOps++
	m.cycles += m.invPorts

	// Fast/slow probe pairs: the Fast half inlines here (see the cache and
	// tlb packages); the Slow half is the out-of-line full set walk, and
	// the whole probe when a replacement policy or way memo is attached.
	if !(m.dtlb.TranslateFast(page) || m.dtlb.TranslateSlow(page)) {
		m.stall(float64(m.cfg.TLBLat))
	}

	hw := m.hwOn && m.opt.Mechanism != HWNone
	learn := hw || (m.opt.UpdateWhenOff && m.opt.Mechanism == HWBypass)

	// The bypass buffer is probed in parallel with the L1 cache; a hit
	// forwards through the buffer's read port, which costs one extra
	// cycle relative to an L1 hit (like a victim-cache swap).
	if m.buf != nil && hw {
		if m.buf.Probe(addr, write) {
			m.cycles += m.cfg.Alpha * m.cfg.BufferHitLat
			return
		}
	}
	if m.matT != nil && learn {
		m.matT.Touch(addr)
		m.sldt.Observe(addr)
	}

	hit := m.l1.LookupFast(block, write) || m.l1.LookupSlow(block, write)
	if m.cls1 != nil {
		m.cls1.Observe(addr, !hit)
	}
	if hit {
		return
	}

	// L1 miss. Victim cache first (hardware mechanism = victim).
	if m.vc1 != nil && hw {
		if dirty, ok := m.vc1.Probe(addr); ok {
			ev := m.l1.FillMiss(addr, dirty || write)
			m.handleL1Evict(ev, hw)
			m.stall(float64(m.cfg.VictimSwapLat))
			return
		}
	}

	// Bypass decision (hardware mechanism = MAT/SLDT). Per Johnson &
	// Hwu, caching-versus-bypassing is decided by the macro-block
	// frequency comparison alone; the SLDT independently selects the
	// fetch size (the aligned two-block unit when spatial locality is
	// expected).
	if m.matT != nil && hw {
		spatial := m.sldt.Spatial(addr)
		way, victimBlock, vValid := m.l1.VictimWay(addr)
		if m.matT.ShouldBypass(addr, victimBlock, vValid, spatial) {
			// Bypassed data never enters L1. Its fetch size still
			// adapts to the SLDT's prediction: spatially local data is
			// fetched a full block at a time into the bypass buffer, so
			// cold streams stay cheap without displacing the hot set.
			if spatial {
				lat := m.fetch(addr, false, hw)
				wbs := m.buf.FillSpan(addr, write, m.opt.MAT.FillSpanWords, m.cfg.L1.Block)
				m.cycles += float64(wbs) * wbL1Occupancy
				m.bypasses++
				m.stall(lat)
				return
			}
			lat := m.fetch(addr, true, hw)
			if m.buf.Fill(addr, write) {
				m.cycles += wbL1Occupancy
			}
			m.bypasses++
			m.stall(lat)
			return
		}
		wasL2Miss := m.l2Misses
		lat := m.fetch(addr, false, hw)
		ev := m.l1.FillWay(addr, way, write)
		m.handleL1Evict(ev, hw)
		if spatial && (m.cfg.PrefetchFromL2 || m.l2Misses > wasL2Miss) {
			lat += m.spatialPrefetch(addr, hw)
		}
		m.stall(lat)
		return
	}

	lat := m.fetch(addr, false, hw)
	ev := m.l1.FillMiss(addr, write)
	m.handleL1Evict(ev, hw)
	m.stall(lat)
}

// fetch services an L1 miss from L2 or memory and returns its latency.
// dword fetches transfer a single double word (bypassed fills) instead of a
// full L1 block.
func (m *Machine) fetch(addr mem.Addr, dword bool, hw bool) float64 {
	fill := m.l1Transfer
	if dword {
		fill = 1
	}
	b2 := uint64(addr) >> m.l2.BlockShift()
	l2hit := m.l2.LookupFast(b2, false) || m.l2.LookupSlow(b2, false)
	if m.cls2 != nil {
		m.cls2.Observe(addr, !l2hit)
	}
	if l2hit {
		return float64(m.cfg.L2Lat) + fill
	}
	m.l2Misses++
	// L2 miss: victim cache at L2, then memory.
	if m.vc2 != nil && hw {
		if dirty, ok := m.vc2.Probe(addr); ok {
			ev2 := m.l2.FillMiss(addr, dirty)
			m.handleL2Evict(ev2, hw)
			return float64(m.cfg.L2Lat+m.cfg.VictimSwapLat) + fill
		}
	}
	ev2 := m.l2.FillMiss(addr, false)
	m.handleL2Evict(ev2, hw)
	return float64(m.cfg.L2Lat+m.cfg.MemLat) + m.l2Transfer + fill
}

// spatialPrefetch fetches the buddy block — the other half of the aligned
// two-block unit — into L1 when the SLDT predicts spatial locality (the
// "fetch larger size blocks" half of the mechanism), returning the extra
// bus occupancy. Under memory-system contention (half or more of the miss
// slots busy) the larger fetch is dropped, as the bus has no headroom for
// speculative halves.
func (m *Machine) spatialPrefetch(addr mem.Addr, hw bool) float64 {
	busy := 0
	for _, t := range m.outstanding {
		if t > m.cycles {
			busy++
		}
	}
	if busy >= m.cfg.MLP/2 {
		return 0
	}
	next := m.l1.BlockAddr(addr) ^ mem.Addr(m.cfg.L1.Block)
	if m.l1.Contains(next) {
		return 0
	}
	m.prefetches++
	// The prefetched block rides the same transaction; charge transfer
	// occupancy only (it is adjacent, so no extra DRAM row activation).
	l2hit := m.l2.Lookup(next, false)
	if m.cls2 != nil {
		m.cls2.Observe(next, !l2hit)
	}
	extra := m.l1Transfer
	if !l2hit {
		ev2 := m.l2.FillMiss(next, false)
		m.handleL2Evict(ev2, hw)
		extra += m.l2Transfer
	}
	ev := m.l1.FillMiss(next, false)
	m.handleL1Evict(ev, hw)
	return extra
}

func (m *Machine) handleL1Evict(ev cache.Evicted, hw bool) {
	if !ev.Valid {
		return
	}
	if m.vc1 != nil && hw {
		disp := m.vc1.Insert(ev.BlockAddr, ev.Dirty)
		if disp.Valid && disp.Dirty {
			m.writebackL2(disp.BlockAddr)
		}
		return
	}
	if ev.Dirty {
		m.writebackL2(ev.BlockAddr)
	}
}

func (m *Machine) handleL2Evict(ev cache.Evicted, hw bool) {
	if !ev.Valid {
		return
	}
	if m.vc2 != nil && hw {
		disp := m.vc2.Insert(ev.BlockAddr, ev.Dirty)
		if disp.Valid && disp.Dirty {
			m.cycles += wbL2Occupancy
		}
		return
	}
	if ev.Dirty {
		m.cycles += wbL2Occupancy
	}
}

// writebackL2 retires a dirty L1 block into L2, allocating if necessary.
// Write-backs are buffered, so only bus occupancy is charged.
func (m *Machine) writebackL2(a mem.Addr) {
	ev2 := m.l2.Fill(a, true)
	m.cycles += wbL1Occupancy
	if ev2.Valid && ev2.Dirty {
		m.cycles += wbL2Occupancy
	}
}

// Finish drains outstanding misses and returns the run's statistics. The
// machine can keep being used afterwards (Finish is idempotent with respect
// to state other than the drained clock).
func (m *Machine) Finish() RunStats {
	if m.maxCompletion > m.cycles {
		m.cycles = m.maxCompletion
	}
	if m.hwOn && m.opt.HonorMarkers {
		m.onCycles += m.cycles - m.lastOnStamp
		m.lastOnStamp = m.cycles
	}
	st := RunStats{
		Config:            m.cfg.Name,
		Mechanism:         m.opt.Mechanism,
		Cycles:            uint64(math.Ceil(m.cycles)),
		Instructions:      m.instructions,
		MemOps:            m.memOps,
		Markers:           m.markers,
		L1:                m.l1.Stats,
		L2:                m.l2.Stats,
		TLB:               m.dtlb.Stats,
		Bypasses:          m.bypasses,
		SpatialPrefetches: m.prefetches,
		OnCycles:          uint64(m.onCycles),
	}
	if !m.opt.HonorMarkers && m.hwOn {
		st.OnCycles = st.Cycles
	}
	if m.cls1 != nil {
		st.L1Class = m.cls1.Stats
		st.L2Class = m.cls2.Stats
	}
	if m.vc1 != nil {
		st.Victim1 = m.vc1.Stats
		st.Victim2 = m.vc2.Stats
	}
	if m.matT != nil {
		st.MAT = m.matT.Stats
		st.MAT.SpatialYes = m.sldt.Stats.SpatialYes
		st.MAT.SpatialNo = m.sldt.Stats.SpatialNo
		st.Buffer = m.buf.Stats
	}
	if m.opt.WayMemo {
		st.WayMemo1, _ = m.l1.WayMemoCounters()
		st.WayMemo2, _ = m.l2.WayMemoCounters()
	}
	if m.opt.Energy {
		st.Energy = energy.Compute(energy.Default(), EnergyInputs(m.cfg, st))
	}
	return st
}

// EnergyInputs derives the energy model's inputs from a run's final
// counters. It is a pure function of (config, stats): the oracle's
// reference machine calls it on its own independently accumulated stats,
// so the energy comparison checks the whole counter pipeline rather than
// the arithmetic alone.
//
// DRAM reads are L2 misses not served by the L2 victim cache (the victim
// cache is only probed on L2 misses, so the subtraction cannot go
// negative); DRAM writes are dirty L2 evictions. Write-backs absorbed by
// victim caches are charged as victim operations, not DRAM.
func EnergyInputs(cfg Config, st RunStats) energy.Inputs {
	return energy.Inputs{
		L1: energy.LevelInputs{
			Assoc:      uint64(cfg.L1.Assoc),
			Accesses:   st.L1.Accesses,
			MemoProbes: st.WayMemo1.Probes,
			MemoHits:   st.WayMemo1.Hits,
			Fills:      st.L1.Fills,
		},
		L2: energy.LevelInputs{
			Assoc:      uint64(cfg.L2.Assoc),
			Accesses:   st.L2.Accesses,
			MemoProbes: st.WayMemo2.Probes,
			MemoHits:   st.WayMemo2.Hits,
			Fills:      st.L2.Fills,
		},
		TLBProbes:  st.TLB.Accesses,
		VictimOps:  st.Victim1.Probes + st.Victim1.Inserts + st.Victim2.Probes + st.Victim2.Inserts,
		BufferOps:  st.Buffer.Probes + st.Buffer.Fills,
		DRAMReads:  st.L2.Misses - st.Victim2.Hits,
		DRAMWrites: st.L2.DirtyEvictions,
	}
}
