package trace

import (
	"bytes"
	"testing"

	"selcache/internal/mem"
)

// batchLog implements mem.BatchEmitter by expanding every block through the
// reference scalar consumer into the embedded callLog, recording how many
// EmitBlock calls it received.
type batchLog struct {
	callLog
	blocks int
}

func (l *batchLog) EmitBlock(b *mem.EventBlock) {
	l.blocks++
	b.Emit(&l.callLog)
}

func TestBlockCursorMatchesScalar(t *testing.T) {
	tr := recordSample(t)
	var want callLog
	emit(&want)

	// A tiny capacity forces the sample stream across several blocks.
	cur, ok := tr.BlockCursor()
	if !ok {
		t.Fatal("recorded stream did not pack")
	}
	var got callLog
	blk := NewBlock(3)
	for cur.Next(blk) {
		if blk.Len() < 1 || blk.Len() > blk.Cap() {
			t.Fatalf("block length %d outside (0, %d]", blk.Len(), blk.Cap())
		}
		blk.Emit(&got)
	}
	if len(got.calls) != len(want.calls) {
		t.Fatalf("cursor replay expanded to %d calls, want %d", len(got.calls), len(want.calls))
	}
	for i := range want.calls {
		if got.calls[i] != want.calls[i] {
			t.Fatalf("call %d = %+v, want %+v", i, got.calls[i], want.calls[i])
		}
	}
}

func TestReplayBatchedMatchesScalar(t *testing.T) {
	tr := recordSample(t)
	var want callLog
	tr.Replay(&want)

	var got batchLog
	if !tr.ReplayBatched(&got, nil) {
		t.Fatal("packable stream refused batched replay")
	}
	if got.blocks == 0 {
		t.Fatal("batched replay emitted no blocks")
	}
	if len(got.calls) != len(want.calls) {
		t.Fatalf("batched replay expanded to %d calls, want %d", len(got.calls), len(want.calls))
	}
	for i := range want.calls {
		if got.calls[i] != want.calls[i] {
			t.Fatalf("call %d = %+v, want %+v", i, got.calls[i], want.calls[i])
		}
	}
}

// unpackableTrace builds a decoded trace whose access address exceeds the
// packed form's 56-bit limit, so every batched entry point must fall back.
func unpackableTrace(t *testing.T) *Trace {
	t.Helper()
	r := NewRecorder()
	r.Access(1<<60, 8, false)
	r.Compute(2)
	tr := r.Trace()
	if tr.ensurePacked() {
		t.Fatal("trace with 60-bit address packed; want fallback")
	}
	return tr
}

func TestBatchedFallbackForUnpackableStream(t *testing.T) {
	tr := unpackableTrace(t)
	if _, ok := tr.BlockCursor(); ok {
		t.Fatal("BlockCursor succeeded on unpackable stream")
	}
	var b batchLog
	if tr.ReplayBatched(&b, nil) {
		t.Fatal("ReplayBatched accepted unpackable stream")
	}
	if len(b.calls) != 0 {
		t.Fatalf("failed batched replay still emitted %d calls", len(b.calls))
	}
	// The caller's fallback, Replay, still delivers the stream as scalar
	// calls.
	tr.Replay(&b)
	if len(b.calls) != 2 || b.blocks != 0 {
		t.Fatalf("fallback replay: %d calls, %d blocks; want 2 scalar calls, 0 blocks", len(b.calls), b.blocks)
	}
}

func TestPayloadReleasedAfterPack(t *testing.T) {
	tr := recordSample(t)
	before := tr.payloadLen
	var buf1 bytes.Buffer
	if _, err := tr.WriteTo(&buf1); err != nil {
		t.Fatal(err)
	}

	// Any replay packs the stream; a recorder-produced payload re-encodes
	// byte-identically, so the varint form must be dropped.
	var sink callLog
	tr.Replay(&sink)
	if tr.payload != nil {
		t.Fatal("payload retained after successful pack of a recorded stream")
	}
	if tr.payloadLen != before {
		t.Fatalf("payloadLen changed across release: %d -> %d", before, tr.payloadLen)
	}

	// Encoding after the release must rebuild the exact original bytes.
	var buf2 bytes.Buffer
	if _, err := tr.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("WriteTo after payload release differs from WriteTo before")
	}

	// And the re-decoded stream must replay identically.
	back, err := ReadFrom(bytes.NewReader(buf2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var want, got callLog
	emit(&want)
	back.Replay(&got)
	if len(got.calls) != len(want.calls) {
		t.Fatalf("round-tripped replay expanded to %d calls, want %d", len(got.calls), len(want.calls))
	}
	for i := range want.calls {
		if got.calls[i] != want.calls[i] {
			t.Fatalf("call %d = %+v, want %+v", i, got.calls[i], want.calls[i])
		}
	}
}

func TestUnpackableStreamKeepsPayload(t *testing.T) {
	tr := unpackableTrace(t)
	if tr.payload == nil {
		t.Fatal("unpackable stream lost its wire payload")
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var got callLog
	back.Replay(&got)
	if len(got.calls) != 2 {
		t.Fatalf("unpackable round trip replayed %d calls, want 2", len(got.calls))
	}
	if got.calls[0].addr != 1<<60 {
		t.Fatalf("replayed addr %#x, want %#x", got.calls[0].addr, uint64(1)<<60)
	}
}

func TestCursorAfterPayloadRelease(t *testing.T) {
	tr := recordSample(t)
	var sink callLog
	tr.Replay(&sink) // packs and releases the payload
	if tr.payload != nil {
		t.Fatal("payload retained after replay")
	}
	var want callLog
	emit(&want)
	n := 0
	for c := tr.Cursor(); ; n++ {
		if _, ok := c.Next(); !ok {
			break
		}
	}
	if n != len(want.calls) {
		t.Fatalf("cursor iterated %d events after release, want %d", n, len(want.calls))
	}
}
