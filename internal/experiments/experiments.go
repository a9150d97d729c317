// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 5): the benchmark-characteristics table (Table 2),
// the per-benchmark improvement figures for the six machine configurations
// (Figures 4–9), the average-improvement summary across both hardware
// mechanisms (Table 3), and the ablation studies DESIGN.md calls out.
//
// Every driver is a method on Env, which carries the three parameters a
// run takes: the worker count, the trace cache streams replay from, and an
// adjustment applied to every cell's options. The zero Env is the default
// run: one worker per CPU, a private trace cache per call, unmodified
// options. VictimScenario, a single live run, is the one plain function.
//
// Every driver decomposes into independent cells — for the sweeps, one
// benchmark through all five versions under one configuration and
// mechanism — that fan out across the internal/parallel worker pool, each
// worker replaying into its own reusable decode block. Results are
// assembled in cell order, so the output is byte-identical to a serial run
// (docs/PERFORMANCE.md states the guarantee; TestParallelSweepMatchesSerial
// and TestAblationsWorkerInvariant enforce it). RunRow exposes one sweep
// cell to the selcached service.
package experiments

import (
	"selcache/internal/core"
	"selcache/internal/parallel"
	"selcache/internal/sim"
	"selcache/internal/trace"
	"selcache/internal/workloads"
)

// Env is the environment every driver runs under.
type Env struct {
	// Workers is the pool size: < 1 means one per CPU, parallel.Serial a
	// plain loop on the calling goroutine.
	Workers int
	// Traces is the stream store shared across drivers, so a caller
	// running several (cmd/experiments) records each stream once. nil
	// means a private cache per driver call: each distinct stream is
	// still recorded only once within that call.
	Traces *TraceCache
	// Mod adjusts the options of every cell; nil means no adjustment. The
	// machine-axis flags of cmd/experiments (-policy, -waymemo, -energy)
	// thread through it. Mods must only touch machine-level knobs
	// (replacement policy, way memo, energy, mechanism tables): the
	// recorded event streams do not depend on those, so the trace cache
	// stays shared across modded and unmodded runs.
	Mod func(*core.Options)
}

// options returns the default options with f and then e.Mod applied.
func (e Env) options(f func(*core.Options)) core.Options {
	o := core.DefaultOptions()
	if f != nil {
		f(&o)
	}
	if e.Mod != nil {
		e.Mod(&o)
	}
	return o
}

// replayer replays cached streams into one worker's decode block.
type replayer struct {
	tc  *TraceCache
	blk *trace.Block
}

// replay runs version v of w under o.
func (r replayer) replay(w workloads.Workload, v core.Version, o core.Options) core.Result {
	return core.ReplayTrace(r.tc.Get(w, v, o), v, o, r.blk)
}

// cells runs cell(r, i) for every i in [0, n) across e's worker pool and
// returns the results in cell order. Every worker replays into its own
// block from a parallel.Arena — padded and first-touched on that worker —
// so replay never allocates per cell and workers never false-share decode
// state.
func cells[T any](e Env, n int, cell func(r replayer, i int) T) []T {
	tc := e.Traces.orNew()
	blocks := parallel.NewArena(e.Workers, func() *trace.Block {
		return trace.NewBlock(trace.DefaultBlockEvents)
	})
	return parallel.MapWorkers(e.Workers, n, func(wk, i int) T {
		return cell(replayer{tc: tc, blk: blocks.Get(wk)}, i)
	})
}

// Row holds one benchmark's results across the simulated versions.
type Row struct {
	Benchmark string
	Class     workloads.Class
	// Cycles and Improv are indexed by core.Version (fixed-size arrays:
	// every run fills all five versions, and the flat layout keeps sweep
	// assembly allocation-free). Improvement is the percentage cycle
	// reduction versus the base run.
	Cycles [core.NumVersions]uint64
	Improv [core.NumVersions]float64
	// Stats keeps the full per-version simulator statistics for detailed
	// reporting.
	Stats [core.NumVersions]sim.RunStats
}

// Sweep is one figure's worth of data: every benchmark through every
// version under one machine configuration and hardware mechanism.
type Sweep struct {
	Config    sim.Config
	Mechanism sim.HWKind
	Rows      []Row
	// Avg holds the arithmetic-mean improvement per version; ClassAvg
	// splits it by benchmark class. ClassCount records how many of Rows
	// fall in each class — a zero entry means the class is absent and its
	// ClassAvg row is meaningless.
	Avg        [core.NumVersions]float64
	ClassAvg   [workloads.NumClasses][core.NumVersions]float64
	ClassCount [workloads.NumClasses]int
}

// Events sums the simulated instruction events across every run of the
// sweep (throughput reporting).
func (sw Sweep) Events() uint64 {
	var n uint64
	for i := range sw.Rows {
		for v := range sw.Rows[i].Stats {
			n += sw.Rows[i].Stats[v].Instructions
		}
	}
	return n
}

// RunRow executes one sweep cell: a single benchmark through all five
// versions under o, replaying streams from tc (nil: record privately).
// It is the unit the batch drivers and the selcached service both build
// on — a cell shares no mutable state beyond the trace cache, so RunRow
// is safe to execute on any worker, and its RunStats are byte-identical
// to a live core.Run (modulo the documented WallNanos nondeterminism).
func RunRow(w workloads.Workload, o core.Options, tc *TraceCache) Row {
	return replayer{tc: tc.orNew()}.runRow(w, o)
}

// runRow is the sweep cell every driver and RunRow share.
func (r replayer) runRow(w workloads.Workload, o core.Options) Row {
	row := Row{Benchmark: w.Name, Class: w.Class}
	var base core.Result
	for _, v := range core.Versions() {
		res := r.replay(w, v, o)
		if v == core.Base {
			base = res
		}
		row.Cycles[v] = res.Sim.Cycles
		row.Improv[v] = core.Improvement(base, res)
		row.Stats[v] = res.Sim
	}
	return row
}

// Assemble computes the sweep aggregates (overall and per-class average
// improvement) from already-executed rows. Accumulation runs in row
// order, so float summation matches the serial reference exactly; callers
// assembling cells they ran out of order (the selcached sweep endpoint)
// must sort rows back into request order first.
func Assemble(o core.Options, rows []Row) Sweep {
	sw := Sweep{Config: o.Machine, Mechanism: o.Mechanism, Rows: rows}
	for i := range rows {
		row := &rows[i]
		sw.ClassCount[row.Class]++
		for _, v := range core.Versions() {
			sw.Avg[v] += row.Improv[v]
			sw.ClassAvg[row.Class][v] += row.Improv[v]
		}
	}
	if len(rows) > 0 {
		inv := 1 / float64(len(rows))
		for v := range sw.Avg {
			sw.Avg[v] *= inv
		}
		for c := range sw.ClassAvg {
			if sw.ClassCount[c] == 0 {
				continue
			}
			for v := range sw.ClassAvg[c] {
				sw.ClassAvg[c][v] /= float64(sw.ClassCount[c])
			}
		}
	}
	return sw
}

// Sweep simulates the given workloads (paper order when ws is nil)
// through all five versions under o, with e.Mod applied.
func (e Env) Sweep(o core.Options, ws []workloads.Workload) Sweep {
	if ws == nil {
		ws = workloads.All()
	}
	if e.Mod != nil {
		e.Mod(&o)
	}
	rows := cells(e, len(ws), func(r replayer, i int) Row { return r.runRow(ws[i], o) })
	return Assemble(o, rows)
}

// FigureID identifies one of the paper's per-benchmark figures.
type FigureID int

const (
	// Figure4 is the base configuration.
	Figure4 FigureID = iota
	// Figure5 is the 200-cycle memory latency configuration.
	Figure5
	// Figure6 is the 1 MB L2 configuration.
	Figure6
	// Figure7 is the 64 KB L1 configuration.
	Figure7
	// Figure8 is the 8-way L2 configuration.
	Figure8
	// Figure9 is the 8-way L1 configuration.
	Figure9
)

// Config returns the machine configuration the figure uses.
func (f FigureID) Config() sim.Config {
	return sim.ExperimentConfigs()[int(f)]
}

// Name returns the paper's figure caption.
func (f FigureID) Name() string {
	switch f {
	case Figure4:
		return "Figure 4: Base configuration"
	case Figure5:
		return "Figure 5: Larger memory latency (200 cycles)"
	case Figure6:
		return "Figure 6: Larger L2 size (1 MB)"
	case Figure7:
		return "Figure 7: Larger L1 size (64 KB)"
	case Figure8:
		return "Figure 8: Higher L2 associativity (8)"
	case Figure9:
		return "Figure 9: Higher L1 associativity (8)"
	default:
		return "unknown figure"
	}
}

// Figures lists all six.
func Figures() []FigureID {
	return []FigureID{Figure4, Figure5, Figure6, Figure7, Figure8, Figure9}
}

// Figure reproduces one of Figures 4–9 (cache bypassing as the hardware
// mechanism, per Section 5.1). The figures differ only in machine
// configuration, so with a shared e.Traces all six replay the same 39
// recorded streams.
func (e Env) Figure(f FigureID) Sweep {
	o := core.DefaultOptions()
	o.Machine = f.Config()
	o.Mechanism = sim.HWBypass
	return e.Sweep(o, nil)
}

// Table2Row holds one benchmark's characteristics under the base machine
// (instructions executed and L1/L2 miss rates of the base run) — the
// paper's Table 2.
type Table2Row struct {
	Benchmark    string
	Class        workloads.Class
	Instructions uint64
	L1MissPct    float64
	L2MissPct    float64
	ConflictPct  float64 // share of L1 misses that are conflict misses

	// WallNanos is the host wall time of the base-run replay behind the
	// row — nondeterministic, excluded from golden output, used by the
	// -benchjson perf artifact for per-benchmark ns/event.
	WallNanos int64
}

// Table2 reproduces the benchmark-characteristics table. Classification of
// misses is enabled, so it also reports the conflict-miss share the paper
// quotes in Section 4.2 (53–72%). Its base streams are the same ones the
// figures and Table 3 replay.
func (e Env) Table2() []Table2Row {
	o := e.options(func(o *core.Options) { o.Classify = true })
	ws := workloads.All()
	return cells(e, len(ws), func(r replayer, i int) Table2Row {
		w := ws[i]
		s := r.replay(w, core.Base, o).Sim
		row := Table2Row{
			Benchmark:    w.Name,
			Class:        w.Class,
			Instructions: s.Instructions,
			L1MissPct:    100 * s.L1.MissRate(),
			L2MissPct:    100 * s.L2.MissRate(),
			WallNanos:    s.WallNanos,
		}
		if t := s.L1Class.Total(); t > 0 {
			row.ConflictPct = 100 * float64(s.L1Class.Conflict) / float64(t)
		}
		return row
	})
}

// Table3Row is one machine configuration's average improvements across the
// seven scheme columns of the paper's Table 3.
type Table3Row struct {
	Config          string
	PureSoftware    float64
	CacheBypass     float64
	CombinedBypass  float64
	SelectiveBypass float64
	VictimCache     float64
	CombinedVictim  float64
	SelectiveVictim float64
}

// Table3 reproduces the average-improvement summary for every experiment
// configuration and both hardware mechanisms. It also returns the
// underlying sweeps, interleaved bypass/victim per configuration
// (throughput reporting and tests).
func (e Env) Table3() ([]Table3Row, []Sweep) {
	return e.table3(nil)
}

// table3 flattens the full (configuration × mechanism × benchmark) space —
// 6 × 2 × 13 = 156 cells by default — into one fan-out, so the pool stays
// saturated across sweep boundaries instead of draining twelve times.
// Every cell replays cached streams: the 780 version runs behind the
// default table reduce to 39 recordings (13 benchmarks × 3 stream classes;
// nothing in the key varies across configurations or mechanisms). ws
// overrides the benchmark list for tests.
func (e Env) table3(ws []workloads.Workload) ([]Table3Row, []Sweep) {
	if ws == nil {
		ws = workloads.All()
	}
	cfgs := sim.ExperimentConfigs()
	// Sweep order matches the serial reference: per configuration, bypass
	// then victim.
	opts := make([]core.Options, 0, 2*len(cfgs))
	for _, cfg := range cfgs {
		for _, mech := range []sim.HWKind{sim.HWBypass, sim.HWVictim} {
			opts = append(opts, e.options(func(o *core.Options) {
				o.Machine = cfg
				o.Mechanism = mech
			}))
		}
	}

	rows := cells(e, len(opts)*len(ws), func(r replayer, i int) Row {
		return r.runRow(ws[i%len(ws)], opts[i/len(ws)])
	})

	sweeps := make([]Sweep, len(opts))
	for j := range opts {
		sweeps[j] = Assemble(opts[j], rows[j*len(ws):(j+1)*len(ws)])
	}
	out := make([]Table3Row, 0, len(cfgs))
	for ci, cfg := range cfgs {
		bp, vc := sweeps[2*ci], sweeps[2*ci+1]
		out = append(out, Table3Row{
			Config:          cfg.Name,
			PureSoftware:    bp.Avg[core.PureSoftware],
			CacheBypass:     bp.Avg[core.PureHardware],
			CombinedBypass:  bp.Avg[core.Combined],
			SelectiveBypass: bp.Avg[core.Selective],
			VictimCache:     vc.Avg[core.PureHardware],
			CombinedVictim:  vc.Avg[core.Combined],
			SelectiveVictim: vc.Avg[core.Selective],
		})
	}
	return out, sweeps
}
