package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"time"

	"selcache/internal/core"
	"selcache/internal/experiments"
	"selcache/internal/locality"
	"selcache/internal/loopir"
	"selcache/internal/server"
	"selcache/internal/workloads"
)

// handlerRounds is how many times the traced serve run sends each warm
// cell through the handler directly.
const handlerRounds = 20

// traceServe is the serve workload's traced run: the closed loop as in the
// untraced run, then the request path taken apart from outside — spec
// resolution and hashing, encoding and the handler on memory-tier hits;
// the handler, preparation and locality analysis behind estimates; and
// RunRow plus the full record and replay path on never-seen cells.
func traceServe(opt options, host *hostRecord) (map[string]metric, ops, error) {
	p := newServePlan(opt.seed, planPerSecond*opt.seconds)
	fmt.Fprintf(stderr, "serve plan %s: %d requests, %d warm cells\n", p.digest, len(p.reqs), len(p.warm))
	env, err := setUpServe(p)
	if err != nil {
		return nil, ops{}, err
	}
	defer env.close()
	host.probeBefore()
	res := closedLoop(env, p)
	host.probeAfter()
	snap, err := env.metricsSnapshot()
	if err != nil {
		return nil, ops{}, err
	}
	if _, err := verifyRuns(p, &res); err != nil {
		return nil, ops{}, err
	}
	var counts ops
	fig := summarise(p, res, &counts)

	pr := newProbe(&counts)
	handlerHit, err := traceHits(env, p, pr)
	if err != nil {
		return nil, ops{}, err
	}
	if err := traceEstimates(env, p, res, pr); err != nil {
		return nil, ops{}, err
	}
	if err := traceCold(p, pr); err != nil {
		return nil, ops{}, err
	}
	tcs := snap.TraceCache
	extra := map[string]float64{
		"net.client_overhead_us":           fig.hitP50*1e3 - handlerHit,
		"server.tier_memory":               float64(snap.Tiers[server.TierMemory]),
		"server.tier_computed":             float64(snap.Tiers[server.TierComputed]),
		"server.runs_deduped":              float64(snap.Runs.Deduped),
		"experiments.tracecache_hit_ratio": float64(tcs.Hits) / float64(tcs.Hits+tcs.Misses),
	}
	m, err := pr.finish(opt.spans, extra)
	return m, counts, err
}

// serveDirect sends one request straight into the server's handler.
func serveDirect(env *serveEnv, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	env.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// traceHits times the memory-tier path of every warm cell, first without
// spans and then with them (the difference is the tracing overhead), and
// returns the median handler time in µs.
func traceHits(env *serveEnv, p *servePlan, pr *probe) (float64, error) {
	tc := experiments.NewTraceCache("")
	stored := make([]server.StoredResult, len(p.warm))
	wantBody := make([][]byte, len(p.warm))
	bodies := make([][]byte, len(p.warm))
	for i, rr := range p.warm {
		spec, o, err := server.ResolveSpec(rr)
		if err != nil {
			return 0, err
		}
		w, _ := workloads.Resolve(spec.Workload)
		row := experiments.RunRow(w, o, tc)
		for v := range row.Stats {
			row.Stats[v].WallNanos = 0
		}
		stored[i] = server.StoredResult{Spec: spec, Row: row}
		wantBody[i] = append(mustJSON(stored[i].Response("")), '\n')
		bodies[i] = mustJSON(rr)
	}
	hit := func(i int) {
		rec := serveDirect(env, "/v1/run", bodies[i])
		pr.expect(rec.Code == http.StatusOK && rec.Header().Get("X-Selcache-Tier") == server.TierMemory &&
			bytes.Equal(rec.Body.Bytes(), wantBody[i]), "%s: direct memory-tier answer differs", p.warm[i].Workload)
	}
	t0 := time.Now()
	for r := 0; r < handlerRounds; r++ {
		for i, rr := range p.warm {
			spec, _, _ := server.ResolveSpec(rr)
			_ = spec.Key()
			mustJSON(stored[i].Response(""))
			hit(i)
		}
	}
	untraced := time.Since(t0)
	t1 := time.Now()
	for r := 0; r < handlerRounds; r++ {
		for i, rr := range p.warm {
			pr.tr.do("server.resolve_key", func() {
				spec, _, _ := server.ResolveSpec(rr)
				_ = spec.Key()
			})
			pr.tr.do("server.encode", func() { mustJSON(stored[i].Response("")) })
			pr.tr.begin("server.handler_hit")
			hit(i)
			pr.tr.end()
		}
	}
	pr.overhead = time.Since(t1) - untraced
	return median(pr.tr.layers()["server.handler_hit"].selves) / 1e3, nil
}

// traceEstimates sends the plan's distinct estimate cells through the
// handler, checking each body against the closed loop's, then rebuilds
// each estimate from core.Prepare and locality.Analyze and checks it
// against core.EstimateVariants.
func traceEstimates(env *serveEnv, p *servePlan, res loopResult, pr *probe) error {
	seen := map[string]bool{}
	for _, r := range p.reqs {
		if r.kind != kindEstimate || seen[r.cell] || len(seen) == coldProbeCells {
			continue
		}
		seen[r.cell] = true
		var rec *httptest.ResponseRecorder
		pr.tr.do("server.handler_estimate", func() { rec = serveDirect(env, r.path, r.body) })
		first, ok := res.first[r.cell]
		pr.expect(rec.Code == http.StatusOK && (!ok || bytes.Equal(first, rec.Body.Bytes())), "%s: direct estimate differs from the served one", r.cell)

		var er server.EstimateRequest
		if err := json.Unmarshal(r.body, &er); err != nil {
			return err
		}
		w, _ := workloads.Resolve(er.Workload)
		o := core.DefaultOptions()
		for _, f := range experiments.Figures() {
			if f.Config().Name == er.Config {
				o.Machine = f.Config()
			}
		}
		g := locality.FromConfig(o.Machine)
		var got []locality.Estimate
		analyze := func(prog *loopir.Program) {
			pr.tr.do("locality.analyze", func() { got = append(got, locality.Analyze(prog, g)) })
		}
		for _, v := range canonicalVersions {
			var prog *loopir.Program
			pr.tr.do("core.prepare", func() { prog, _, _ = core.Prepare(w.Build, v, o) })
			analyze(prog)
		}
		var prog *loopir.Program
		pr.tr.do("core.prepare", func() { prog, _ = core.PreparePCOT(w.Build, o) })
		analyze(prog)
		want := core.EstimateVariants(w.Build, o)
		pr.expect(reflect.DeepEqual(got, []locality.Estimate{want[core.Base].Estimate, want[core.PureSoftware].Estimate,
			want[core.Selective].Estimate, want[core.NumVersions].Estimate}), "%s: estimate rebuilt from outside differs", r.cell)
	}
	return nil
}

// traceCold runs RunRow on never-seen cells with a fresh TraceCache each,
// then rebuilds every stream and replay of the cell from outside.
func traceCold(p *servePlan, pr *probe) error {
	for _, rr := range p.cold {
		spec, o, err := server.ResolveSpec(rr)
		if err != nil {
			return err
		}
		w, _ := workloads.Resolve(spec.Workload)
		tc := experiments.NewTraceCache("")
		var row experiments.Row
		pr.tr.do("experiments.runrow_cold", func() { row = experiments.RunRow(w, o, tc) })
		for _, v := range canonicalVersions {
			pr.record(w, v, o, tc.Get(w, v, o))
			pr.decode(tc.Get(w, v, o))
		}
		for _, v := range core.Versions() {
			pr.checkReplay(tc.Get(w, v, o), v, o, row.Stats[v])
		}
	}
	return nil
}
