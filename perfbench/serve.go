package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"selcache/internal/experiments"
	"selcache/internal/server"
	"selcache/internal/workloads"
	"selcache/internal/workloads/synth"
)

// Request kinds of the serve plan.
const (
	kindHit      = iota // /v1/run on a cell warmed during set-up (memory tier)
	kindEstimate        // /v1/estimate
	kindMiss            // /v1/run on a cell never requested before (computed tier)
	numKinds
)

var kindNames = [numKinds]string{"hit", "estimate", "miss"}

const (
	// serveClients is the closed loop's connection count.
	serveClients = 2
	// planPerSecond sizes the plan: a run sends planPerSecond × -seconds
	// requests, all of them, however long that takes. A fixed amount of
	// work keeps the cold cells — and so the server's memory — the same
	// from run to run; on the reference host the plan takes roughly
	// -seconds to send.
	planPerSecond = 2000
	// coldProbeCells is how many further never-seen cells a traced run
	// decomposes from outside.
	coldProbeCells = 16
)

// planReq is one request of the serve plan.
type planReq struct {
	kind int
	// cell identifies the response's expected content: every response
	// for one cell must be byte-identical.
	cell string
	path string
	body []byte
	run  server.RunRequest // kindHit and kindMiss
}

// servePlan is the seeded request sequence of the serve workload.
type servePlan struct {
	warm   []server.RunRequest
	reqs   []planReq
	cold   []server.RunRequest // extra cold cells for the traced decomposition
	digest string
}

// newServePlan draws the plan from the synthetic family#seed corpus
// cmd/loadgen uses: 70% memory-tier runs over the warm cells, 20%
// estimates over the warm kernels under any configuration, 10% runs on
// fresh cells. There is one warm cell per family, and cold cells take the
// families in turn, so every seed's plan carries the same mix of kernel
// shapes and about the same amount of work; the seed picks the kernels,
// mechanisms, configurations and order. The same seed gives the identical
// sequence, cold cells included.
func newServePlan(seed int64, n int) *servePlan {
	rng := rand.New(rand.NewSource(seed))
	fams := synth.Families()
	cfgs := experiments.Figures()
	used := map[string]bool{}
	mech := func() string {
		if rng.Intn(2) == 0 {
			return "bypass"
		}
		return "victim"
	}
	coldFam := rng.Perm(len(fams))
	cold := 0
	fresh := func(f synth.Family, seedMax int) server.RunRequest {
		for {
			name := fmt.Sprintf("%s#%d", f.Name(), rng.Intn(seedMax))
			if !used[name] {
				used[name] = true
				return server.RunRequest{Workload: name, Mechanism: mech()}
			}
		}
	}
	nextCold := func() server.RunRequest {
		f := fams[coldFam[cold%len(fams)]]
		cold++
		return fresh(f, 1<<30)
	}
	p := &servePlan{}
	for _, f := range fams {
		p.warm = append(p.warm, fresh(f, 1000))
	}
	h := sha256.New()
	for i := 0; i < n; i++ {
		var r planReq
		switch u := rng.Float64(); {
		case u < 0.7:
			r = runReq(kindHit, p.warm[rng.Intn(len(p.warm))])
		case u < 0.9:
			er := server.EstimateRequest{
				Workload: p.warm[rng.Intn(len(p.warm))].Workload,
				Config:   cfgs[rng.Intn(len(cfgs))].Config().Name,
			}
			r = planReq{kind: kindEstimate, cell: "estimate " + er.Workload + " " + er.Config, path: "/v1/estimate", body: mustJSON(er)}
		default:
			r = runReq(kindMiss, nextCold())
		}
		fmt.Fprintf(h, "%s %s\n", kindNames[r.kind], r.body)
		p.reqs = append(p.reqs, r)
	}
	for len(p.cold) < coldProbeCells {
		p.cold = append(p.cold, nextCold())
	}
	p.digest = hex.EncodeToString(h.Sum(nil))
	return p
}

func runReq(kind int, rr server.RunRequest) planReq {
	return planReq{kind: kind, cell: "run " + rr.Workload + " " + rr.Mechanism, path: "/v1/run", body: mustJSON(rr), run: rr}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshaling %T: %v", v, err)) // plain structs; cannot fail
	}
	return b
}

// serveEnv is one in-process selcached on a loopback listener.
type serveEnv struct {
	srv    *server.Server
	hs     *http.Server
	done   chan error
	base   string
	client *http.Client
}

func startServe() (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{})
	env := &serveEnv{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
			DisableCompression:  true,
		}},
	}
	go func() { env.done <- env.hs.Serve(ln) }()
	return env, nil
}

// close stops the listener, waits for the serving goroutine and for the
// server's background work.
func (e *serveEnv) close() error {
	e.client.CloseIdleConnections()
	err := e.hs.Shutdown(context.Background())
	if serr := <-e.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	e.srv.Drain()
	return err
}

// post sends one request and returns status, tier header and body.
func (e *serveEnv) post(path string, body []byte) (int, string, []byte, error) {
	resp, err := e.client.Post(e.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Selcache-Tier"), b, err
}

// metricsSnapshot fetches GET /metrics.
func (e *serveEnv) metricsSnapshot() (server.MetricsSnapshot, error) {
	var snap server.MetricsSnapshot
	resp, err := e.client.Get(e.base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// setUpServe starts a server and warms every warm cell into its memory
// tier.
func setUpServe(p *servePlan) (*serveEnv, error) {
	env, err := startServe()
	if err != nil {
		return nil, err
	}
	for _, rr := range p.warm {
		status, tier, body, err := env.post("/v1/run", mustJSON(rr))
		if err != nil || status != http.StatusOK || tier != server.TierComputed {
			env.close()
			return nil, fmt.Errorf("warming %s: status %d tier %q err %v: %s", rr.Workload, status, tier, err, body)
		}
	}
	return env, nil
}

// served is one completed request of the closed loop.
type served struct {
	idx     int
	end     time.Duration // completion, since the loop started
	latency time.Duration
	ok      bool // 200, expected tier, body equal to the cell's first
}

// loopResult is what the closed loop observed.
type loopResult struct {
	done    []served
	elapsed time.Duration
	// first holds the first body seen per cell; later bodies were
	// compared against it inside the loop.
	first map[string][]byte
}

// closedLoop drives the whole plan over serveClients connections, each
// sending its next request only after the previous one completed.
func closedLoop(env *serveEnv, p *servePlan) loopResult {
	var next atomic.Int64
	var mu sync.Mutex
	res := loopResult{first: map[string][]byte{}}
	per := make([][]served, serveClients)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(p.reqs) {
					return
				}
				r := p.reqs[i]
				start := time.Now()
				status, tier, body, err := env.post(r.path, r.body)
				lat := time.Since(start)
				ok := err == nil && status == http.StatusOK && tier == wantTier(r.kind)
				if ok {
					mu.Lock()
					if f, seen := res.first[r.cell]; seen {
						ok = bytes.Equal(f, body)
					} else {
						res.first[r.cell] = body
					}
					mu.Unlock()
				}
				per[c] = append(per[c], served{idx: i, end: time.Since(t0), latency: lat, ok: ok})
			}
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(t0)
	for _, s := range per {
		res.done = append(res.done, s...)
	}
	return res
}

// wantTier is the X-Selcache-Tier a request kind must be answered from
// (estimates carry none).
func wantTier(kind int) string {
	switch kind {
	case kindHit:
		return server.TierMemory
	case kindMiss:
		return server.TierComputed
	}
	return ""
}

// expectedRunBody is the /v1/run body a cell must produce: a direct
// experiments.RunRow rendered the way the server renders it. It also
// returns the cell's workload, options and statistics.
func expectedRunBody(rr server.RunRequest, tc *experiments.TraceCache) ([]byte, cell, experiments.Row, error) {
	spec, o, err := server.ResolveSpec(rr)
	if err != nil {
		return nil, cell{}, experiments.Row{}, err
	}
	w, _ := workloads.Resolve(spec.Workload)
	row := experiments.RunRow(w, o, tc)
	for v := range row.Stats {
		row.Stats[v].WallNanos = 0
	}
	body := append(mustJSON(server.StoredResult{Spec: spec, Row: row}.Response("")), '\n')
	return body, cell{w: w, o: o}, row, nil
}

// verifyRuns checks the first body of every run cell the loop served
// against a direct RunRow, computed after the timed phase with a private
// trace cache per cell. It then replays the cell once more from that
// cache, in process CPU time, and checks the statistics again. A cell
// that fails either check fails every request made for it. It returns
// the replays' simulated instructions per CPU second: the simulator's
// rate over every kernel the plan ran, apart from the request path and
// the recording.
func verifyRuns(p *servePlan, res *loopResult) (float64, error) {
	bad := map[string]bool{}
	checked := map[string]bool{}
	var instr uint64
	var replay time.Duration
	for _, s := range res.done {
		r := p.reqs[s.idx]
		if r.kind == kindEstimate || checked[r.cell] {
			continue
		}
		checked[r.cell] = true
		body, seen := res.first[r.cell]
		if !seen {
			continue // every response for the cell already failed
		}
		tc := experiments.NewTraceCache("")
		want, c, row, err := expectedRunBody(r.run, tc)
		if err != nil {
			return 0, err
		}
		t0 := processTime()
		again := experiments.RunRow(c.w, c.o, tc)
		replay += processTime() - t0
		same := true
		for v := range again.Stats {
			instr += again.Stats[v].Instructions
			again.Stats[v].WallNanos = 0
			same = same && again.Stats[v] == row.Stats[v]
		}
		bad[r.cell] = !bytes.Equal(body, want) || !same
	}
	for i := range res.done {
		if bad[p.reqs[res.done[i].idx].cell] {
			res.done[i].ok = false
		}
	}
	if replay == 0 {
		return 0, nil // no run cell answered; every run request failed
	}
	return float64(instr) / replay.Seconds(), nil
}

// serveWindow is how many consecutive completions make one summary
// window of the closed loop (about a second on the reference host).
const serveWindow = 2000

// serveFigures are the closed loop's end-to-end figures.
type serveFigures struct {
	goodput                         float64 // correct responses per second
	hitP50, hitP90, estP50, missP50 float64 // ms
}

// summarise counts every request as attempted (and the ones that failed
// a check), then computes each figure per window of serveWindow
// consecutive completions and reports its median over the windows, so a
// neighbour burst covering fewer than half the windows moves no figure. A
// final partial window is dropped unless it is the only one.
func summarise(p *servePlan, res loopResult, counts *ops) serveFigures {
	done := append([]served(nil), res.done...)
	sort.Slice(done, func(i, j int) bool { return done[i].end < done[j].end })
	var f [5][]float64
	var from time.Duration
	for lo := 0; lo < len(done); lo += serveWindow {
		hi := lo + serveWindow
		if hi > len(done) {
			if lo > 0 {
				break
			}
			hi = len(done)
		}
		var lat [numKinds][]float64
		good := 0
		for _, s := range done[lo:hi] {
			if s.ok {
				good++
			}
			k := p.reqs[s.idx].kind
			lat[k] = append(lat[k], ms(s.latency))
		}
		to := done[hi-1].end
		f[0] = append(f[0], float64(good)/(to-from).Seconds())
		f[1] = append(f[1], quantile(lat[kindHit], 0.5))
		f[2] = append(f[2], quantile(lat[kindHit], 0.9))
		f[3] = append(f[3], quantile(lat[kindEstimate], 0.5))
		f[4] = append(f[4], quantile(lat[kindMiss], 0.5))
		from = to
	}
	for _, s := range done {
		counts.check(s.ok)
	}
	return serveFigures{median(f[0]), median(f[1]), median(f[2]), median(f[3]), median(f[4])}
}

func runServe(opt options, host *hostRecord) (map[string]metric, ops, error) {
	p := newServePlan(opt.seed, planPerSecond*opt.seconds)
	fmt.Fprintf(stderr, "serve plan %s: %d requests, %d warm cells\n", p.digest, len(p.reqs), len(p.warm))
	env, setupS, err := setUp(func() (*serveEnv, error) { return setUpServe(p) }, (*serveEnv).close)
	if err != nil {
		return nil, ops{}, err
	}
	host.probeBefore()
	res := closedLoop(env, p)
	host.probeAfter()
	if err := env.close(); err != nil {
		return nil, ops{}, err
	}
	rate, err := verifyRuns(p, &res)
	if err != nil {
		return nil, ops{}, err
	}
	var counts ops
	fig := summarise(p, res, &counts)
	fmt.Fprintf(stderr, "serve sent %d requests in %.1f s\n", len(res.done), res.elapsed.Seconds())
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"sim_events_per_s": {rate, "1/s"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"goodput_rps":      {fig.goodput, "1/s"},
		"hit_p50_ms":       {fig.hitP50, "ms"},
		"hit_p90_ms":       {fig.hitP90, "ms"},
		"estimate_p50_ms":  {fig.estP50, "ms"},
		"miss_p50_ms":      {fig.missP50, "ms"},
	}, counts, nil
}
