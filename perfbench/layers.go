package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"selcache/internal/cache"
	"selcache/internal/core"
	"selcache/internal/experiments"
	"selcache/internal/loopir"
	"selcache/internal/mat"
	"selcache/internal/mem"
	"selcache/internal/opt"
	"selcache/internal/regions"
	"selcache/internal/sim"
	"selcache/internal/tlb"
	"selcache/internal/trace"
	"selcache/internal/workloads"
)

// layers.json lists every per-layer metric: its unit, what it times, the
// traced workloads that measure it, the end-to-end metrics it should move
// and on which workloads, and where the prediction is no change.
// BENCHMARK.json's per_layer list holds the same names, units and
// directions (TestLayersMatchBenchmarkJSON).
//
//go:embed layers.json
var layersJSON []byte

// layerDef is one entry of layers.json; the program reads only Name and
// Unit, the rest documents the metric.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func loadLayers() ([]layerDef, error) {
	var defs []layerDef
	if err := json.Unmarshal(layersJSON, &defs); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	return defs, nil
}

// layerMetrics renders a traced run's values as the full per-layer metric
// set: every metric of layers.json, zero where the workload does not
// exercise the layer.
func layerMetrics(values map[string]float64) (map[string]metric, error) {
	defs, err := loadLayers()
	if err != nil {
		return nil, err
	}
	out := map[string]metric{}
	for _, d := range defs {
		out[d.Name] = metric{values[d.Name], d.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %q is missing from layers.json", name)
		}
	}
	return out, nil
}

// canonicalVersions are the versions whose recipes produce the three
// stream classes (core.Stream): every other version replays one of them.
var canonicalVersions = []core.Version{core.Base, core.PureSoftware, core.Selective}

// probe decomposes a workload from outside: it repeats the program's work
// call by call through each module's public API inside spans, checks that
// the pieces reproduce what the untraced run produced, and accumulates the
// counts the per-layer figures divide by.
type probe struct {
	tr     *tracer
	counts *ops
	blk    *trace.Block

	recordEvents   uint64 // events of the streams recorded from outside
	encodedBytes   uint64
	packedWords    uint64
	decodeEvents   uint64
	replayEvents   uint64
	observeCalls   uint64
	classifyBlocks uint64
	overhead       time.Duration

	accesses, tlbFast, l1Fast, l1Hits, l1Misses uint64
}

func newProbe(counts *ops) *probe {
	return &probe{tr: newTracer(), counts: counts, blk: trace.NewBlock(trace.DefaultBlockEvents)}
}

// record rebuilds the stream version v of w emits under o — build, region
// detection, optimisation, interpretation, recording, packing — and checks
// that its bytes equal want, the stream the untraced run's TraceCache
// holds. v must be one of canonicalVersions.
func (p *probe) record(w workloads.Workload, v core.Version, o core.Options, want *trace.Trace) {
	o = o.Normalized()
	p.tr.begin("record.stream")
	defer p.tr.end()
	var prog *loopir.Program
	p.tr.do("workloads.build", func() { prog = w.Build() })
	switch v.Stream() {
	case core.StreamSelective:
		p.tr.do("regions.detect", func() { regions.Detect(prog, o.Regions) })
		fallthrough
	case core.StreamOptimized:
		p.tr.do("opt.optimize", func() { opt.Optimize(prog, o.Opt) })
	}
	var ce mem.CountingEmitter
	p.tr.do("loopir.interp", func() { loopir.Run(prog, &ce) })
	// A program may update its own data as it runs, so the recording
	// interprets a fresh copy, prepared through the public recipe.
	var again *loopir.Program
	p.tr.do("core.prepare_copy", func() { again, _, _ = core.Prepare(w.Build, v, o) })
	var t *trace.Trace
	p.tr.do("trace.record", func() {
		rec := trace.NewRecorder()
		loopir.Run(again, rec)
		t = rec.Trace()
	})
	packs := false
	p.tr.do("trace.pack", func() { _, packs = t.BlockCursor() })
	p.expect(packs && ce.Instructions == t.Meta.Instructions() && bytes.Equal(t.Encode(), want.Encode()),
		"%s %s: stream rebuilt from outside differs from the TraceCache's", w.Name, v.Stream())
	p.recordEvents += t.Meta.Events
	p.encodedBytes += uint64(t.EncodedSize())
}

// noopBatch consumes decoded blocks and does nothing else, isolating the
// decode cost of batched replay.
type noopBatch struct{ words uint64 }

func (n *noopBatch) Access(mem.Addr, uint8, bool) {}
func (n *noopBatch) Compute(int)                  {}
func (n *noopBatch) Marker(bool)                  {}
func (n *noopBatch) EmitBlock(b *mem.EventBlock)  { n.words += uint64(b.Len()) }

// decode replays t into a no-op consumer.
func (p *probe) decode(t *trace.Trace) {
	var n noopBatch
	p.tr.do("trace.decode", func() { t.ReplayBatched(&n, p.blk) })
	p.packedWords += n.words
	p.decodeEvents += t.Meta.Events
}

// replay runs t through a fresh machine for version v under o and reports
// whether the batched engine took it.
func (p *probe) replay(t *trace.Trace, v core.Version, o core.Options) (sim.RunStats, bool) {
	p.tr.begin("sim.run")
	var m *sim.Machine
	p.tr.do("sim.new_machine", func() { m = sim.NewMachine(o.Machine, core.SimOptions(v, o)) })
	batched := false
	p.tr.do("sim.replay", func() { batched = t.ReplayBatched(m, p.blk) })
	var st sim.RunStats
	p.tr.do("sim.finish", func() { st = m.Finish() })
	p.tr.end()
	if m.Components().Cls1 != nil {
		// Every L1 and L2 probe of a classifying machine is one Observe
		// call.
		p.observeCalls += st.L1.Accesses + st.L2.Accesses
	}
	p.replayEvents += t.Meta.Events
	return st, batched
}

// checkReplay replays like replay and checks the statistics against want,
// the untraced run's.
func (p *probe) checkReplay(t *trace.Trace, v core.Version, o core.Options, want sim.RunStats) {
	st, batched := p.replay(t, v, o)
	want.WallNanos = 0
	p.expect(batched && st == want, "%s/%s %s: replay from outside differs from the untraced RunStats", o.Machine.Name, o.Mechanism, v)
}

// expect counts one cross-check, reporting a failure loudly.
func (p *probe) expect(ok bool, format string, args ...any) {
	if !ok {
		fmt.Fprintf(stderr, "perfbench: "+format+"\n", args...)
	}
	p.counts.check(ok)
}

// components drives each simulated component alone over t's access
// column, on the machine configuration cfg; the miss classifier is fed
// the L1 drive's miss flags.
func (p *probe) components(t *trace.Trace, cfg sim.Config) {
	var addrs []mem.Addr
	var writes []bool
	cur, ok := t.BlockCursor()
	if !ok {
		p.expect(false, "a base stream does not pack")
		return
	}
	blk := p.blk
	for cur.Next(blk) {
		for i := 0; i < blk.Len(); i++ {
			if blk.Kind[i] == mem.EvAccess {
				addrs = append(addrs, blk.Addr[i])
				writes = append(writes, blk.Write[i])
			}
		}
	}
	p.accesses += uint64(len(addrs))

	tl := tlb.New(cfg.TLB)
	pageShift := tl.PageShift()
	p.tr.do("tlb.translate", func() {
		for _, a := range addrs {
			page := uint64(a) >> pageShift
			if tl.TranslateFast(page) {
				p.tlbFast++
			} else {
				tl.TranslateSlow(page)
			}
		}
	})

	l1 := cache.New(cfg.L1)
	blockShift := l1.BlockShift()
	miss := make([]bool, len(addrs))
	var missAddrs []mem.Addr
	var evicted []cache.Evicted
	p.tr.do("cache.l1", func() {
		for i, a := range addrs {
			b := uint64(a) >> blockShift
			switch {
			case l1.LookupFast(b, writes[i]):
				p.l1Fast++
				p.l1Hits++
			case l1.LookupSlow(b, writes[i]):
				p.l1Hits++
			default:
				miss[i] = true
				missAddrs = append(missAddrs, a)
				evicted = append(evicted, l1.FillMiss(a, writes[i]))
			}
		}
	})
	p.l1Misses += uint64(len(missAddrs))

	l2 := cache.New(cfg.L2)
	p.tr.do("cache.l2", func() {
		for _, a := range missAddrs {
			if !l2.Lookup(a, false) {
				l2.FillMiss(a, false)
			}
		}
	})

	vc := cache.NewVictim(sim.Options{}.WithDefaults().L1VictimEntries, cfg.L1.Block)
	p.tr.do("cache.victim", func() {
		for i, a := range missAddrs {
			vc.Probe(a)
			if ev := evicted[i]; ev.Valid {
				vc.Insert(ev.BlockAddr, ev.Dirty)
			}
		}
	})

	mc := mat.DefaultConfig()
	table, sldt := mat.NewTable(mc), mat.NewSLDT(mc, cfg.L1.Block)
	p.tr.do("mat.touch", func() {
		for _, a := range addrs {
			table.Touch(a)
			sldt.Observe(a)
		}
	})

	buf := mat.NewBuffer(mc.BufferWords)
	p.tr.do("mat.buffer", func() {
		for i, a := range addrs {
			if !buf.Probe(a, writes[i]) {
				buf.Fill(a, writes[i])
			}
		}
	})

	cls := cache.NewClassifier(cfg.L1)
	p.tr.do("cache.classify", func() {
		for i, a := range addrs {
			cls.Observe(a, miss[i])
		}
	})
	// A block's first touch is always an L1 miss, so the compulsory count
	// is the size of the classifier's seen set.
	p.classifyBlocks += cls.Stats.Compulsory
}

// values turns the spans and counts into per-layer metric values.
func (p *probe) values() map[string]float64 {
	l := p.tr.layers()
	self := func(name string) float64 {
		if lt := l[name]; lt != nil {
			return float64(lt.self.Nanoseconds())
		}
		return 0
	}
	mean := func(name string) float64 {
		if lt := l[name]; lt != nil && lt.calls > 0 {
			return float64(lt.self.Nanoseconds()) / float64(lt.calls)
		}
		return 0
	}
	medianUs := func(name string) float64 {
		if lt := l[name]; lt != nil {
			return median(lt.selves) / 1e3
		}
		return 0
	}
	per := func(ns float64, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return ns / float64(n)
	}
	ratio := func(a, b uint64) float64 { return per(float64(a), b) }
	v := map[string]float64{
		"workloads.build_ms":           mean("workloads.build") / 1e6,
		"regions.detect_ms":            mean("regions.detect") / 1e6,
		"opt.optimize_ms":              mean("opt.optimize") / 1e6,
		"loopir.interp_ns_per_event":   per(self("loopir.interp"), p.recordEvents),
		"trace.record_ns_per_event":    per(self("trace.record")-self("loopir.interp"), p.recordEvents),
		"trace.pack_ns_per_event":      per(self("trace.pack"), p.recordEvents),
		"trace.encoded_mb":             float64(p.encodedBytes) / 1e6,
		"trace.packed_mb":              float64(p.packedWords) * 8 / 1e6,
		"cache.classify_blocks":        float64(p.classifyBlocks),
		"trace.decode_ns_per_event":    per(self("trace.decode"), p.decodeEvents),
		"sim.replay_ns_per_event":      per(self("sim.replay")+self("sim.finish"), p.replayEvents),
		"sim.new_machine_us":           mean("sim.new_machine") / 1e3,
		"sim.replayed_events":          float64(p.replayEvents),
		"tlb.ns_per_access":            per(self("tlb.translate"), p.accesses),
		"tlb.fast_ratio":               ratio(p.tlbFast, p.accesses),
		"cache.l1_ns_per_access":       per(self("cache.l1"), p.accesses),
		"cache.l1_fast_ratio":          ratio(p.l1Fast, p.accesses),
		"cache.l1_hit_ratio":           ratio(p.l1Hits, p.accesses),
		"cache.l2_ns_per_access":       per(self("cache.l2"), p.l1Misses),
		"cache.victim_ns_per_probe":    per(self("cache.victim"), p.l1Misses),
		"mat.ns_per_access":            per(self("mat.touch"), p.accesses),
		"mat.buffer_ns_per_probe":      per(self("mat.buffer"), p.accesses),
		"cache.classify_ns_per_access": per(self("cache.classify"), p.accesses),
		"server.resolve_key_us":        medianUs("server.resolve_key"),
		"server.encode_us":             medianUs("server.encode"),
		"server.handler_hit_us":        medianUs("server.handler_hit"),
		"server.handler_estimate_us":   medianUs("server.handler_estimate"),
		"core.prepare_ms":              mean("core.prepare") / 1e6,
		"locality.analyze_us":          mean("locality.analyze") / 1e3,
		"experiments.runrow_cold_ms":   mean("experiments.runrow_cold") / 1e6,
		"bench.trace_overhead_ms":      ms(p.overhead),
	}
	if p.replayEvents > 0 {
		v["sim.self_ns_per_event"] = v["sim.replay_ns_per_event"] - v["trace.decode_ns_per_event"]
	}
	return v
}

// finish writes the spans and renders the per-layer metrics; extra holds
// values measured outside the spans (the serve workload's server
// counters).
func (p *probe) finish(path string, extra map[string]float64) (map[string]metric, error) {
	if err := p.tr.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	v := p.values()
	for k, x := range extra {
		v[k] = x
	}
	return layerMetrics(v)
}

// traceSweep is the traced run of sweep: the untraced set-up, then every
// stream rebuilt from outside call by call, one untraced repetition, the
// same cell versions replayed into machines built by hand, and last the
// components, the miss classifier among them, driven alone on the base
// streams.
func traceSweep(opt options, host *hostRecord) (map[string]metric, ops, error) {
	want, err := loadDigests()
	if err != nil {
		return nil, ops{}, err
	}
	cells := sweepCells()
	tc, _, err := fillTraceCache(cells)
	if err != nil {
		return nil, ops{}, err
	}
	var counts ops
	host.probeBefore()
	p := newProbe(&counts)
	for _, c := range cells {
		for _, v := range canonicalVersions {
			p.record(c.w, v, c.o, tc.Get(c.w, v, c.o))
		}
	}
	for _, c := range cells {
		for _, v := range canonicalVersions {
			p.decode(tc.Get(c.w, v, c.o))
		}
	}

	// The untraced repetition runs right before the traced replays of the
	// same cells, so their difference is the tracing overhead.
	t0 := time.Now()
	rows := make([][core.NumVersions]sim.RunStats, len(cells))
	for i, c := range cells {
		rows[i] = experiments.RunRow(c.w, c.o, tc).Stats
	}
	untraced := time.Since(t0)
	for i, c := range cells {
		checkCell(want, c, rows[i], &counts)
	}
	t1 := time.Now()
	for i, c := range cells {
		for _, v := range core.Versions() {
			p.checkReplay(tc.Get(c.w, v, c.o), v, c.o, rows[i][v])
		}
	}
	p.overhead = time.Since(t1) - untraced
	host.probeAfter()
	fmt.Fprintf(stderr, "Classifier.Observe calls in the replays: %d\n", p.observeCalls)
	p.expect(p.observeCalls == 0, "sweep replays called Classifier.Observe %d times; classification must be off", p.observeCalls)
	for _, c := range cells {
		p.components(tc.Get(c.w, core.Base, c.o), sim.Base())
	}
	m, err := p.finish(opt.spans, nil)
	return m, counts, err
}
