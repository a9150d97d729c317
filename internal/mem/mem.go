// Package mem provides the simulated virtual address space that every
// workload in this repository executes against.
//
// Workloads do not touch real memory: they allocate arrays and scalars from
// a Space and *emit* the loads and stores they would perform to an Emitter
// (usually the cache-hierarchy simulator in internal/sim). Arrays carry an
// explicit dimension order so that the compiler's data-layout transformations
// (internal/opt) can change the memory layout of an array without touching
// the code that indexes it, exactly as a layout-transforming compiler would.
package mem

import "fmt"

// Addr is a simulated virtual address.
type Addr uint64

// Emitter consumes the dynamic event stream of a simulated program run:
// memory accesses, bursts of non-memory instructions, and the special
// activate/deactivate instructions that gate the hardware locality
// optimization at run time.
//
// The cache simulator implements Emitter; tests frequently implement it with
// small recording sinks.
type Emitter interface {
	// Access simulates one load (write=false) or store (write=true) of
	// size bytes at addr. Size is a power of two no larger than 8.
	Access(addr Addr, size uint8, write bool)

	// Compute accounts for n non-memory instructions (ALU, branches,
	// address arithmetic). It advances simulated time but touches no
	// cache state.
	Compute(n int)

	// Marker simulates an activate (on=true) or deactivate (on=false)
	// instruction for the hardware optimization mechanism. It costs one
	// instruction slot.
	Marker(on bool)
}

// Event kind codes for an EventBlock's Kind column. The values match the
// low two bits of internal/trace's packed event words, so trace decoding
// into a block is a mask, not a translation table.
const (
	EvCompute   uint8 = 0
	EvMarkerOn  uint8 = 1
	EvMarkerOff uint8 = 2
	EvAccess    uint8 = 3
)

// EventBlock is a fixed-capacity struct-of-arrays batch of simulated
// events. Column i describes event i; only the columns meaningful for
// Kind[i] hold defined values (Addr/Size/Write for EvAccess, N/Count for
// EvCompute — producers may write the other columns too, but their contents
// are unspecified).
//
// Blocks are plain reusable buffers: one per replay (or per sweep worker,
// via parallel.Arena) is enough, and reusing one across replays is the
// point — the batched engine never materializes a whole stream in SoA form.
type EventBlock struct {
	// Kind holds the event kind codes (Ev*).
	Kind []uint8
	// Addr, Size, Write are the access columns.
	Addr  []Addr
	Size  []uint8
	Write []bool
	// N and Count are the compute-run columns: Count[i] calls of
	// Compute(N[i]). A folded run occupies one block slot regardless of
	// its length.
	N     []int32
	Count []uint32

	n int
}

// NewEventBlock returns a block with capacity for events decoded events per
// fill. Capacities below 1 fall back to 1.
func NewEventBlock(events int) *EventBlock {
	if events < 1 {
		events = 1
	}
	return &EventBlock{
		Kind:  make([]uint8, events),
		Addr:  make([]Addr, events),
		Size:  make([]uint8, events),
		Write: make([]bool, events),
		N:     make([]int32, events),
		Count: make([]uint32, events),
	}
}

// Len reports how many events the last fill decoded into the block.
func (b *EventBlock) Len() int { return b.n }

// Cap reports the block's event capacity.
func (b *EventBlock) Cap() int { return len(b.Kind) }

// SetLen declares the first n column slots valid. Producers call it after
// filling the columns; n must not exceed Cap.
func (b *EventBlock) SetLen(n int) {
	if n < 0 || n > b.Cap() {
		panic(fmt.Sprintf("mem: SetLen(%d) outside block capacity %d", n, b.Cap()))
	}
	b.n = n
}

// Emit replays the block's events against a scalar emitter, in order. It is
// the reference consumer BatchEmitter implementations are validated
// against.
func (b *EventBlock) Emit(em Emitter) {
	for i := 0; i < b.n; i++ {
		switch b.Kind[i] {
		case EvAccess:
			em.Access(b.Addr[i], b.Size[i], b.Write[i])
		case EvCompute:
			for c := uint32(0); c < b.Count[i]; c++ {
				em.Compute(int(b.N[i]))
			}
		case EvMarkerOn:
			em.Marker(true)
		case EvMarkerOff:
			em.Marker(false)
		}
	}
}

// BatchEmitter is an Emitter that additionally accepts whole columnar
// event blocks. EmitBlock(b) is semantically identical to b.Emit(em) — the
// same events in the same order — and implementations must produce
// bit-identical state and statistics either way (float accumulation order
// included).
//
// The block form exists purely for speed: a consumer that implements
// BatchEmitter receives one call per block instead of one dynamic dispatch
// per event, and can split the pure per-event math (set indices, tags, page
// numbers) into tight columnar loops ahead of its stateful walk.
// trace.Trace.ReplayBatched drives it; trace.Trace.Replay is the
// event-at-a-time reference.
type BatchEmitter interface {
	Emitter

	// EmitBlock consumes the block's events in order. The block and its
	// columns are owned by the caller; implementations must not retain
	// them past the call.
	EmitBlock(b *EventBlock)
}

// CountingEmitter is a trivial Emitter that tallies events. It is useful in
// tests and for cheap dry runs (for example, instruction counting without
// cache simulation).
type CountingEmitter struct {
	Reads, Writes uint64
	Instructions  uint64
	Markers       uint64
	OnMarkers     uint64
}

// Access implements Emitter.
func (c *CountingEmitter) Access(_ Addr, _ uint8, write bool) {
	if write {
		c.Writes++
	} else {
		c.Reads++
	}
	c.Instructions++
}

// Compute implements Emitter.
func (c *CountingEmitter) Compute(n int) { c.Instructions += uint64(n) }

// Marker implements Emitter.
func (c *CountingEmitter) Marker(on bool) {
	c.Markers++
	if on {
		c.OnMarkers++
	}
	c.Instructions++
}

// Accesses returns the total number of memory accesses recorded.
func (c *CountingEmitter) Accesses() uint64 { return c.Reads + c.Writes }

// Space is an allocator for the simulated virtual address space.
//
// The zero value is not ready for use; call NewSpace. Allocations never
// overlap and never straddle address zero, so a zero Addr can be used as a
// sentinel. Between allocations the allocator inserts deterministic
// pseudo-random page-granular gaps, mimicking the scattered layout a real
// process image has (separate mmap regions, heap fragmentation). The
// scatter matters for fidelity: hardware structures indexed by physical
// address bits — cache sets, the MAT's direct-mapped macro-block entries,
// TLB sets — alias between regions in real runs, and a dense bump layout
// would hide that.
type Space struct {
	next Addr
	seq  uint64
}

// spaceBase is the first allocatable address. Keeping it well above zero
// makes accidental zero-address accesses detectable and mirrors the layout
// of a real process image.
const spaceBase Addr = 0x0001_0000

// NewSpace returns an empty address space.
func NewSpace() *Space {
	return &Space{next: spaceBase}
}

// Alloc reserves size bytes aligned to align (a power of two) and returns the
// base address. Alloc panics on a non-positive size or a non-power-of-two
// alignment, since both indicate a workload construction bug.
func (s *Space) Alloc(size int, align int) Addr {
	if size <= 0 {
		panic(fmt.Sprintf("mem: Alloc size %d", size))
	}
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("mem: Alloc align %d not a power of two", align))
	}
	// Deterministic scatter: 0–96 pages of slack per allocation.
	s.seq = s.seq*6364136223846793005 + 1442695040888963407
	gap := Addr((s.seq >> 33) % 97 * 4096)
	s.next += gap
	a := Addr(align)
	s.next = (s.next + a - 1) &^ (a - 1)
	base := s.next
	s.next += Addr(size)
	return base
}

// Used reports the number of bytes allocated so far.
func (s *Space) Used() uint64 { return uint64(s.next - spaceBase) }

// Scalar is a named scalar variable with a fixed address. Scalars are always
// analyzable references in the compiler's classification.
type Scalar struct {
	Name string
	Addr Addr
	Size uint8
}

// NewScalar allocates a scalar of size bytes in s.
func NewScalar(s *Space, name string, size uint8) *Scalar {
	return &Scalar{Name: name, Addr: s.Alloc(int(size), int(size)), Size: size}
}
