package experiments

import (
	"reflect"
	"testing"

	"selcache/internal/core"
	"selcache/internal/parallel"
	"selcache/internal/sim"
)

// normalize zeroes the host-timing field of every run so sweeps can be
// compared exactly; WallNanos is the one documented-nondeterministic field
// of sim.RunStats.
func normalize(sw *Sweep) {
	for i := range sw.Rows {
		for v := range sw.Rows[i].Stats {
			sw.Rows[i].Stats[v].WallNanos = 0
		}
	}
}

// TestParallelSweepMatchesSerial is the engine's determinism guarantee:
// the pooled sweep must be byte-identical to the serial reference — rows,
// per-version statistics, and float aggregates — for both hardware
// mechanisms and at worker counts that exercise real concurrency even on a
// single-CPU host. The test runs under -race in the tier-1 suite, so it
// doubles as the shared-state hazard check for core.Run and the workload
// builders.
func TestParallelSweepMatchesSerial(t *testing.T) {
	ws := subset()
	for _, mech := range []sim.HWKind{sim.HWBypass, sim.HWVictim} {
		o := core.DefaultOptions()
		o.Mechanism = mech
		serial := Env{Workers: parallel.Serial}.Sweep(o, ws)
		normalize(&serial)
		for _, workers := range []int{2, 4} {
			par := Env{Workers: workers}.Sweep(o, ws)
			normalize(&par)
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("mechanism %v: %d-worker sweep differs from serial:\nserial: %+v\nparallel: %+v",
					mech, workers, serial, par)
			}
		}
	}
}

// TestTable3ParallelMatchesSerial checks the flattened 2-mechanism ×
// config × benchmark fan-out against the serial path on the fast subset.
func TestTable3ParallelMatchesSerial(t *testing.T) {
	// Two workloads keep the 12-sweep flattening honest (cell index maps
	// to (sweep, workload)) while staying affordable on one CPU.
	ws := subset()[:2]
	serialRows, serialSweeps := Env{Workers: parallel.Serial}.table3(ws)
	parRows, parSweeps := Env{Workers: 4}.table3(ws)
	for i := range serialSweeps {
		normalize(&serialSweeps[i])
	}
	for i := range parSweeps {
		normalize(&parSweeps[i])
	}
	if !reflect.DeepEqual(serialRows, parRows) {
		t.Errorf("table 3 rows differ:\nserial: %+v\nparallel: %+v", serialRows, parRows)
	}
	if !reflect.DeepEqual(serialSweeps, parSweeps) {
		t.Error("table 3 sweeps differ between serial and parallel assembly")
	}
}

func TestTable3Shapes(t *testing.T) {
	ws := subset()[:1]
	rows, sweeps := Env{}.table3(ws)
	cfgs := sim.ExperimentConfigs()
	if len(rows) != len(cfgs) {
		t.Fatalf("%d rows, want %d", len(rows), len(cfgs))
	}
	if len(sweeps) != 2*len(cfgs) {
		t.Fatalf("%d sweeps, want %d", len(sweeps), 2*len(cfgs))
	}
	for i, r := range rows {
		if r.Config != cfgs[i].Name {
			t.Errorf("row %d config %q, want %q", i, r.Config, cfgs[i].Name)
		}
		bp, vc := sweeps[2*i], sweeps[2*i+1]
		if bp.Mechanism != sim.HWBypass || vc.Mechanism != sim.HWVictim {
			t.Errorf("row %d sweep mechanisms %v/%v", i, bp.Mechanism, vc.Mechanism)
		}
		if bp.Avg[core.Selective] != r.SelectiveBypass {
			t.Errorf("row %d selective/bypass %.4f != sweep avg %.4f", i, r.SelectiveBypass, bp.Avg[core.Selective])
		}
		if vc.Avg[core.Selective] != r.SelectiveVictim {
			t.Errorf("row %d selective/victim %.4f != sweep avg %.4f", i, r.SelectiveVictim, vc.Avg[core.Selective])
		}
		if bp.Events() == 0 {
			t.Errorf("row %d: zero simulated events", i)
		}
	}
}

func TestSweepWallClockFilled(t *testing.T) {
	sw := Env{Workers: parallel.Serial}.Sweep(core.DefaultOptions(), subset()[:1])
	for _, row := range sw.Rows {
		for v, st := range row.Stats {
			if st.WallNanos <= 0 {
				t.Errorf("%s version %v: WallNanos %d not filled", row.Benchmark, core.Version(v), st.WallNanos)
			}
			if st.EventsPerSecond() <= 0 {
				t.Errorf("%s version %v: EventsPerSecond %.1f", row.Benchmark, core.Version(v), st.EventsPerSecond())
			}
		}
	}
}

// TestAblationsWorkerInvariant extends the determinism guarantee to the
// ablation drivers: every row must be identical whether the cells run
// serially or fan out across two workers. Both environments share one
// trace cache, so the second replays without re-recording.
func TestAblationsWorkerInvariant(t *testing.T) {
	ws := subset()[:2]
	tc := NewTraceCache("")
	run := func(e Env) []any {
		return []any{
			e.FrozenTables(ws),
			e.MarkerElimination(ws),
			e.Propagation(ws),
			e.BypassPolicy(ws),
			e.BlockingMemory(ws),
			e.ThresholdSweep([]float64{0.3, 0.7}, ws),
			e.CompilerPasses(ws),
			e.MATDesignSweep(ws),
		}
	}
	serial := run(Env{Workers: parallel.Serial, Traces: tc})
	par := run(Env{Workers: 2, Traces: tc})
	for i := range serial {
		if !reflect.DeepEqual(serial[i], par[i]) {
			t.Errorf("ablation %d differs between serial and 2 workers:\nserial:   %+v\nparallel: %+v", i, serial[i], par[i])
		}
	}
}
