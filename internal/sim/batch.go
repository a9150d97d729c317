package sim

import "selcache/internal/mem"

// This file is the machine's half of the columnar batched replay engine
// (the other half is internal/trace's block cursor). Machine implements
// mem.BatchEmitter: trace.ReplayBatched hands it whole SoA blocks instead
// of one dynamic dispatch per event.
//
// EmitBlock walks each block in tiles of batchSpan events and runs two
// loops per tile:
//
//  1. a pure phase — a tight branch-free loop that derives the L1 block and
//     TLB page columns (the per-event address math). It touches no
//     simulated state, carries no loop dependences, and compiles to
//     straight-line shifts and stores. Non-access slots get harmless
//     garbage; the stateful walk never reads their columns.
//  2. a stateful phase — an in-order walk switching on the kind column:
//     access1 per access (the exact code the scalar path runs, consuming
//     the precomputed columns), folded compute runs, scalar markers.
//     Statistics and cycle accounting are bit-identical to scalar replay by
//     construction.
//
// The tile is sized so the scratch columns stay resident in the host L1
// between the two phases.

// batchSpan is the tile width of the pure/stateful phase split.
const batchSpan = 128

// ensureCols sizes the scratch columns for the pure phase.
func (m *Machine) ensureCols() {
	if m.colBlock == nil {
		m.colBlock = make([]uint64, batchSpan)
		m.colPage = make([]uint64, batchSpan)
	}
}

// EmitBlock implements mem.BatchEmitter: equivalent to b.Emit(m), i.e. the
// block's events in order against the scalar entry points.
func (m *Machine) EmitBlock(b *mem.EventBlock) {
	m.ensureCols()
	n := b.Len()
	for base := 0; base < n; base += batchSpan {
		end := base + batchSpan
		if end > n {
			end = n
		}
		kind := b.Kind[base:end]
		a := b.Addr[base:end]
		w := b.Write[base:end]
		blk := m.colBlock[:len(a)]
		pg := m.colPage[:len(a)]

		// Pure phase: per-event address math, no simulated state.
		for i, x := range a {
			blk[i] = uint64(x) >> m.l1Shift
			pg[i] = uint64(x) >> m.pageShift
		}

		// Stateful phase: the scalar bodies, in event order.
		for i, k := range kind {
			switch k {
			case mem.EvAccess:
				m.access1(a[i], w[i], blk[i], pg[i])
			case mem.EvCompute:
				m.computeRun(int(b.N[base+i]), uint64(b.Count[base+i]))
			case mem.EvMarkerOn:
				m.Marker(true)
			case mem.EvMarkerOff:
				m.Marker(false)
			}
		}
	}
}

// computeRun is equivalent to count consecutive Compute(n) calls. The cycle
// accumulator is floating point, so the increment is applied count times —
// folding the run into one multiply could round differently from the
// scalar path.
func (m *Machine) computeRun(n int, count uint64) {
	m.instructions += uint64(n) * count
	d := float64(n) * m.invIssue
	for i := uint64(0); i < count; i++ {
		m.cycles += d
	}
}
