package core_test

import (
	"testing"

	"selcache/internal/core"
	"selcache/internal/sim"
	"selcache/internal/workloads"
)

// TestReplayEquivalence is the trace subsystem's keystone guarantee: for
// every workload and every version, recording the event stream and
// replaying it through a fresh machine produces statistics byte-identical
// to a live run. Mechanisms alternate by workload index so both hardware
// schemes see replayed streams. In -short mode only the tiny golden
// workloads run; the full 13x5 matrix takes tens of seconds.
func TestReplayEquivalence(t *testing.T) {
	ws := workloads.All()
	if testing.Short() {
		ws = workloads.TinyGolden()
	}
	for i, w := range ws {
		o := core.DefaultOptions()
		if i%2 == 1 {
			o.Mechanism = sim.HWVictim
		}
		for _, v := range core.Versions() {
			t.Run(w.Name+"/"+v.String(), func(t *testing.T) {
				live := core.Run(w.Build, v, o)
				tr, _, _ := core.RecordTrace(w.Build, v, o)
				replayed := core.ReplayTrace(tr, v, o, nil)
				ls, rs := live.Sim, replayed.Sim
				ls.WallNanos, rs.WallNanos = 0, 0
				if ls != rs {
					t.Errorf("replay diverges from live run:\nlive   %+v\nreplay %+v", ls, rs)
				}
			})
		}
	}
}

// TestStreamClasses pins the version-to-stream mapping the trace cache
// relies on: versions in the same class must emit byte-identical streams,
// versions in different classes must not (for a workload with all three).
func TestStreamClasses(t *testing.T) {
	o := core.DefaultOptions()
	record := func(w workloads.Workload) map[core.Version]string {
		enc := make(map[core.Version]string)
		for _, v := range core.Versions() {
			tr, _, _ := core.RecordTrace(w.Build, v, o)
			enc[v] = string(tr.Encode())
		}
		return enc
	}
	// tiny-swim: the stencil code the optimizer transforms.
	swim := record(workloads.TinyGolden()[0])
	// tiny-tpcc: the mixed workload whose markers survive elimination.
	tpcc := record(workloads.TinyGolden()[2])
	for _, enc := range []map[core.Version]string{swim, tpcc} {
		if enc[core.Base] != enc[core.PureHardware] {
			t.Error("Base and PureHardware streams differ; they share untransformed code")
		}
		if enc[core.PureSoftware] != enc[core.Combined] {
			t.Error("PureSoftware and Combined streams differ; they share optimized code")
		}
	}
	if swim[core.Base] == swim[core.PureSoftware] {
		t.Error("swim Base and PureSoftware streams identical; the optimizer did nothing")
	}
	if tpcc[core.PureSoftware] == tpcc[core.Selective] {
		t.Error("tpcc PureSoftware and Selective streams identical; markers are missing")
	}
	for _, v := range core.Versions() {
		want := map[core.Version]core.Stream{
			core.Base: core.StreamBase, core.PureHardware: core.StreamBase,
			core.PureSoftware: core.StreamOptimized, core.Combined: core.StreamOptimized,
			core.Selective: core.StreamSelective,
		}[v]
		if v.Stream() != want {
			t.Errorf("%s.Stream() = %s, want %s", v, v.Stream(), want)
		}
	}
}
