package policy

import (
	"reflect"
	"testing"
)

// TestEHCHandComputedSequence walks one 2-way set through two
// generations of a block and checks the history training arithmetic
// (pred averages: 3, then (3+1)/2=2) and the victim decisions against
// hand-computed expected-hit values at each step.
func TestEHCHandComputedSequence(t *testing.T) {
	p := NewEHC(1, 2, 8)

	// Generation 1 of block 10 on way 0: fill + 3 hits.
	p.Fill(0, 0, 10)
	p.Hit(0, 0)
	p.Hit(0, 0)
	p.Hit(0, 0)
	// Block 20 fills way 1 (first invalid way).
	if got := p.Victim(0); got != 1 {
		t.Fatalf("victim %d, want invalid way 1", got)
	}
	p.Fill(0, 1, 20)

	// Full set. Neither block has history yet (10's generation has not
	// ended), so expected is 0 for both and the tie-break is LRU: way 0
	// (block 10, older stamp despite its hits).
	if got := p.Victim(0); got != 0 {
		t.Fatalf("no-history victim %d, want LRU way 0", got)
	}

	// Block 30 displaces way 0 — block 10's generation ends with 3 hits,
	// so its history slot trains to pred=3.
	p.Fill(0, 0, 30)
	if got := p.SnapshotHistory(); !reflect.DeepEqual(got, []EHCHistSnapshot{{Slot: 2, Tag: 10, Pred: 3}}) {
		t.Fatalf("history after gen 1 of block 10: %+v", got)
	}

	// Generation 2 of block 10: it returns, displacing the LRU way 1
	// (block 20, no history, expected 0 on both, way 1 older). Block 20's
	// hitless generation trains its slot (20 mod 8 = 4) to pred 0.
	if got := p.Victim(0); got != 1 {
		t.Fatalf("victim %d, want way 1", got)
	}
	p.Fill(0, 1, 10)
	if got := p.SnapshotHistory(); !reflect.DeepEqual(got, []EHCHistSnapshot{
		{Slot: 2, Tag: 10, Pred: 3}, {Slot: 4, Tag: 20, Pred: 0},
	}) {
		t.Fatalf("history after gen 1 of block 20: %+v", got)
	}

	// Block 10 predicts 3 with 0 hits so far: expected 3. Block 30 has no
	// history: expected 0. EHC evicts way 0 (block 30) even though block
	// 10 is older-stamped? No — way 0 holds block 30 with the *newer*
	// stamp; the point is EHC protects block 10 where LRU would not have.
	if got := p.Victim(0); got != 0 {
		t.Fatalf("victim %d, want way 0 (block 30, expected 0 < block 10's 3)", got)
	}

	// One hit on block 10: expected drops to 2, still above 0.
	p.Hit(0, 1)
	if got := p.Victim(0); got != 0 {
		t.Fatalf("victim %d, want way 0 still", got)
	}

	// Invalidate ends block 10's generation at 1 hit: pred = (3+1)/2 = 2.
	p.Invalidate(0, 1)
	if got := p.SnapshotHistory(); !reflect.DeepEqual(got, []EHCHistSnapshot{
		{Slot: 2, Tag: 10, Pred: 2}, {Slot: 4, Tag: 20, Pred: 0},
	}) {
		t.Fatalf("history after gen 2 of block 10: %+v", got)
	}
	// Invalidating an already-invalid way is a no-op.
	p.Invalidate(0, 1)
	if got := p.Victim(0); got != 1 {
		t.Fatalf("victim %d, want invalid way 1", got)
	}
}

// TestEHCHistoryAliasing checks the direct-mapped replacement of history
// slots: a block whose tag mismatches its slot's occupant overwrites it.
func TestEHCHistoryAliasing(t *testing.T) {
	p := NewEHC(1, 2, 4)
	// Blocks 5 and 9 alias to slot 1 (mod 4).
	p.Fill(0, 0, 5)
	p.Hit(0, 0)
	p.Hit(0, 0)
	p.Fill(0, 0, 9) // ends gen of 5: slot 1 = {tag 5, pred 2}
	if got := p.SnapshotHistory(); !reflect.DeepEqual(got, []EHCHistSnapshot{{Slot: 1, Tag: 5, Pred: 2}}) {
		t.Fatalf("history: %+v", got)
	}
	p.Fill(0, 0, 5) // ends gen of 9 with 0 hits: slot replaced, pred 0
	if got := p.SnapshotHistory(); !reflect.DeepEqual(got, []EHCHistSnapshot{{Slot: 1, Tag: 9, Pred: 0}}) {
		t.Fatalf("history after alias replacement: %+v", got)
	}
}

// TestEHCSnapshotOrder checks SnapshotSets renders MRU-to-LRU order with
// current-generation hit counts.
func TestEHCSnapshotOrder(t *testing.T) {
	p := NewEHC(1, 3, 4)
	p.Fill(0, 0, 1)
	p.Fill(0, 1, 2)
	p.Fill(0, 2, 3)
	p.Hit(0, 0) // block 1 becomes MRU with 1 hit
	want := [][]EHCLineSnapshot{{{Block: 1, Hits: 1}, {Block: 3, Hits: 0}, {Block: 2, Hits: 0}}}
	if got := p.SnapshotSets(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot %+v, want %+v", got, want)
	}
}

func TestNewEHCRejectsBadHistorySize(t *testing.T) {
	for _, n := range []int{0, -8, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewEHC(1, 2, %d) did not panic", n)
				}
			}()
			NewEHC(1, 2, n)
		}()
	}
}
