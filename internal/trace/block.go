package trace

import "selcache/internal/mem"

// This file implements the columnar (struct-of-arrays) batch layer over the
// packed replay form. A BlockCursor slices the packed []uint64 stream into
// fixed-size mem.EventBlocks whose per-event fields live in parallel
// columns; the decode loop writes every column unconditionally from
// bit-field math, so it compiles to straight-line code with no per-event
// branching on kind. ReplayBatched then hands each block to the consumer's
// EmitBlock — one dynamic dispatch per 4096 events instead of one per
// event.

// DefaultBlockEvents is the block capacity ReplayBatched uses when the
// caller does not supply a Block. 4096 events keeps a block's columns (~80 KB) inside
// the L2 of any host worth benchmarking on while amortizing the per-block
// bookkeeping to nothing.
const DefaultBlockEvents = 4096

// Block is the SoA event batch the cursor decodes into (see
// mem.EventBlock).
type Block = mem.EventBlock

// NewBlock returns a Block with capacity for events decoded events per
// fill. Capacities below 1 fall back to DefaultBlockEvents.
func NewBlock(events int) *Block {
	if events < 1 {
		events = DefaultBlockEvents
	}
	return mem.NewEventBlock(events)
}

// The decoded kind codes are the wire tag's low two bits; mem's exported
// codes must agree so the decode is a mask. Compile-time assertion.
const (
	_ = uint8(kindCompute) - mem.EvCompute
	_ = mem.EvCompute - uint8(kindCompute)
	_ = uint8(kindMarkerOn) - mem.EvMarkerOn
	_ = mem.EvMarkerOn - uint8(kindMarkerOn)
	_ = uint8(kindMarkerOff) - mem.EvMarkerOff
	_ = mem.EvMarkerOff - uint8(kindMarkerOff)
	_ = uint8(kindAccess) - mem.EvAccess
	_ = mem.EvAccess - uint8(kindAccess)
)

// BlockCursor decodes a packed stream into Blocks. Obtain one with
// Trace.BlockCursor; the zero value is an empty stream.
type BlockCursor struct {
	words []uint64
}

// BlockCursor returns a cursor over the trace's packed words, or ok=false
// when the stream does not fit the packed representation (adversarial
// inputs only; recorded runs always pack) and the caller must fall back to
// scalar replay.
func (t *Trace) BlockCursor() (c *BlockCursor, ok bool) {
	if !t.ensurePacked() {
		return nil, false
	}
	return &BlockCursor{words: t.packed}, true
}

// Next fills b with the next batch of events and reports whether it decoded
// any. The decode is branch-free on event kind: every column is written for
// every event from fixed bit fields of the packed word.
func (c *BlockCursor) Next(b *Block) bool {
	words := c.words
	n := b.Cap()
	if n > len(words) {
		n = len(words)
	}
	b.SetLen(n)
	if n == 0 {
		return false
	}
	c.words = words[n:]
	kind, addr := b.Kind[:n], b.Addr[:n]
	size, write := b.Size[:n], b.Write[:n]
	cn, cc := b.N[:n], b.Count[:n]
	for i, w := range words[:n:n] {
		tag := byte(w)
		kind[i] = tag & 0x03
		addr[i] = mem.Addr(w >> packAddrShift)
		size[i] = 1 << ((tag & accSizeMask) >> accSizeShift)
		write[i] = tag&accWriteBit != 0
		cn[i] = int32(w >> packNShift & maxPackN)
		cc[i] = uint32(w >> packCountShift)
	}
	return true
}

// ReplayBatched drives be through the columnar engine, reusing blk (one is
// allocated when nil). It reports false — having emitted nothing — when the
// stream does not pack; the caller falls back to Replay. Event order and
// per-call arguments are identical to Replay's.
func (t *Trace) ReplayBatched(be mem.BatchEmitter, blk *Block) bool {
	cur, ok := t.BlockCursor()
	if !ok {
		return false
	}
	if blk == nil {
		blk = NewBlock(DefaultBlockEvents)
	}
	for cur.Next(blk) {
		be.EmitBlock(blk)
	}
	return true
}
