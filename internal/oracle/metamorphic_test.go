package oracle

// Metamorphic tests: instead of comparing against golden numbers, these
// check relations that must hold between *pairs* of runs — more ways can
// never make an LRU cache miss more, a recorded trace must replay to the
// statistics of the live run it was recorded from, and every block that
// enters a victim cache must leave it in an accountable way.

import (
	"testing"

	"selcache/internal/core"
	"selcache/internal/loopir"
	"selcache/internal/sim"
	"selcache/internal/workloads"
)

// lruGeometries is the associativity ladder for the inclusion test, around
// the base L1 point (32 KB 4-way 32 B blocks → 256 sets).
var lruGeometries = struct {
	sets, block int
	assocs      []int
}{sets: 256, block: 32, assocs: []int{1, 2, 4, 8}}

// TestLRUInclusionOnWorkloadTraces replays real workload streams through
// reference LRU caches of growing associativity and checks the stack
// inclusion property: at a fixed set count, misses are non-increasing in
// the number of ways. A violation would mean the reference replacement
// policy is not true LRU.
func TestLRUInclusionOnWorkloadTraces(t *testing.T) {
	names := []string{"applu", "vpenta", "tpc-c"}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w, ok := workloads.ByName(name)
			if !ok {
				t.Fatalf("unknown workload %q", name)
			}
			tr, _, _ := core.RecordTrace(w.Build, core.Base, core.DefaultOptions())
			g := lruGeometries
			if err := LRUInclusionByWays(tr, g.sets, g.block, g.assocs); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVictimConservationOnWorkload runs a real workload with the hardware
// victim mechanism under the lockstep shadow and then audits the victim
// caches' books: every block ever newly inserted was either taken back on
// a hit, evicted by capacity, or is still resident — and every take was a
// probe hit.
func TestVictimConservationOnWorkload(t *testing.T) {
	w, ok := workloads.ByName("applu")
	if !ok {
		t.Fatal("workload applu missing")
	}
	o := core.DefaultOptions()
	o.Mechanism = sim.HWVictim
	prog, _, _ := core.Prepare(w.Build, core.Combined, o)
	s := NewShadow(o.Machine, core.SimOptions(core.Combined, o))
	loopir.Run(prog, s)
	if _, err := s.Finish(); err != nil {
		t.Fatal(err)
	}

	ref := s.Reference()
	for _, vc := range []struct {
		name string
		v    *refVictim
	}{{"vc1", ref.vc1}, {"vc2", ref.vc2}} {
		if vc.v == nil {
			t.Fatalf("%s not instantiated under HWVictim", vc.name)
		}
		if err := vc.v.fa.conservation(); err != nil {
			t.Errorf("%s: %v", vc.name, err)
		}
		st := vc.v.stats
		if st.Hits > st.Probes {
			t.Errorf("%s: %d hits exceed %d probes", vc.name, st.Hits, st.Probes)
		}
		if vc.v.fa.takes != st.Hits {
			t.Errorf("%s: %d takes but %d probe hits — a block left without a hit",
				vc.name, vc.v.fa.takes, st.Hits)
		}
		if vc.v.fa.newInserts > st.Inserts {
			t.Errorf("%s: %d new inserts exceed %d insert calls",
				vc.name, vc.v.fa.newInserts, st.Inserts)
		}
	}
	// Non-vacuity: the L1 victim cache must actually have been exercised.
	if ref.vc1.stats.Probes == 0 {
		t.Fatal("victim cache never probed; test exercised nothing")
	}
}

// TestReplayMatchesRecord checks the record/replay round trip for every
// version: a trace recorded from the live program must replay into a fresh
// machine to statistics identical to the live run's (WallNanos aside,
// which is the one intentionally nondeterministic field), and both must
// satisfy the cross-field stats invariants.
func TestReplayMatchesRecord(t *testing.T) {
	w, ok := workloads.ByName("applu")
	if !ok {
		t.Fatal("workload applu missing")
	}
	o := core.DefaultOptions()
	for _, v := range core.Versions() {
		v := v
		t.Run(v.String(), func(t *testing.T) {
			t.Parallel()
			live := core.Run(w.Build, v, o)
			tr, _, _ := core.RecordTrace(w.Build, v, o)
			replayed := core.ReplayTrace(tr, v, o, nil)

			a, b := live.Sim, replayed.Sim
			a.WallNanos, b.WallNanos = 0, 0
			if a != b {
				t.Errorf("replay stats diverge from live run:\nlive   %+v\nreplay %+v", a, b)
			}
			if err := CheckStats(a); err != nil {
				t.Errorf("live stats violate invariants: %v", err)
			}
			if err := CheckStats(b); err != nil {
				t.Errorf("replayed stats violate invariants: %v", err)
			}
		})
	}
}
