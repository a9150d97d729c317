package core

import (
	"time"

	"selcache/internal/loopir"
	"selcache/internal/opt"
	"selcache/internal/regions"
	"selcache/internal/sim"
	"selcache/internal/trace"
)

// Stream identifies the equivalence class of a version's event stream.
// The simulated machine never feeds values back into the program, so two
// versions that run the same code emit byte-identical streams no matter
// which machine configuration or hardware mechanism consumes them:
// Base/PureHardware share the untransformed code, PureSoftware/Combined
// share the compiler-optimized code, and Selective alone carries region
// markers. Trace caches key on Stream instead of Version to maximize
// sharing.
type Stream int

const (
	// StreamBase is the untransformed code (Base, PureHardware). Its
	// stream depends on nothing but the workload.
	StreamBase Stream = iota
	// StreamOptimized is the compiler-optimized code (PureSoftware,
	// Combined). Its stream depends on the workload and opt.Options.
	StreamOptimized
	// StreamSelective is the region-marked optimized code (Selective).
	// Its stream additionally depends on regions.Config.
	StreamSelective
)

// NumStreams is the number of stream classes.
const NumStreams = int(StreamSelective) + 1

// String returns the stream-class name.
func (s Stream) String() string {
	switch s {
	case StreamBase:
		return "base"
	case StreamOptimized:
		return "optimized"
	case StreamSelective:
		return "selective"
	default:
		return "unknown"
	}
}

// Stream returns the version's stream class.
func (v Version) Stream() Stream {
	switch v {
	case PureSoftware, Combined:
		return StreamOptimized
	case Selective:
		return StreamSelective
	default:
		return StreamBase
	}
}

// Normalized returns o with the machine-derived compiler defaults filled
// in (zero Opt.BlockBytes/CacheBudget come from the L1 geometry). Trace
// caching keys on the normalized options: two Options values with equal
// normalized forms produce identical event streams per stream class.
func (o Options) Normalized() Options { return o.normalized() }

// RecordTrace prepares the version's program variant exactly like Run and
// captures its event stream instead of simulating it. The returned trace
// replays byte-identically into any mem.Emitter.
func RecordTrace(build Builder, v Version, o Options) (*trace.Trace, regions.Stats, opt.Stats) {
	prog, rst, ost := Prepare(build, v, o)
	rec := trace.NewRecorder()
	loopir.Run(prog, rec)
	return rec.Trace(), rst, ost
}

// ReplayTrace runs a recorded trace through a fresh machine configured for
// version v under o, returning the same Result a live Run of that version
// would (modulo the nondeterministic WallNanos and the fields only a live
// run has: Program, Regions and Opt stats).
//
// Replay goes through the columnar batched engine, decoding into blk: sweep
// workers replaying hundreds of streams reuse one SoA block per worker
// (first-touched on that worker, see parallel.Arena) instead of allocating
// one per replay. A nil blk allocates privately; streams the packed form
// cannot represent fall back to event-at-a-time replay.
//
// The trace must carry v's stream class (see Version.Stream) and have been
// recorded under options whose Normalized form matches o's; otherwise the
// statistics describe a stream the version would never emit.
func ReplayTrace(t *trace.Trace, v Version, o Options, blk *trace.Block) Result {
	return replay(t, v, o, func(m *sim.Machine) {
		if !t.ReplayBatched(m, blk) {
			t.Replay(m)
		}
	})
}

// ReplayTraceScalar is ReplayTrace forced through the event-at-a-time
// path: the reference the batched engine is validated against
// (cmd/validate, TestBatchedReplayEquivalence).
func ReplayTraceScalar(t *trace.Trace, v Version, o Options) Result {
	return replay(t, v, o, func(m *sim.Machine) { t.Replay(m) })
}

// replay times drive feeding a fresh machine for v under o.
func replay(t *trace.Trace, v Version, o Options, drive func(*sim.Machine)) Result {
	o = o.normalized()
	machine := sim.NewMachine(o.Machine, simOptions(v, o))
	start := time.Now()
	drive(machine)
	st := machine.Finish()
	st.WallNanos = time.Since(start).Nanoseconds()
	return Result{Version: v, Sim: st}
}
