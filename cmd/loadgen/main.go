// Command loadgen is an open-loop traffic generator for selcached. It
// renders a deterministic request plan from a seed — zipfian cell
// popularity over a corpus of named and synthetic "family#seed"
// workloads, a run/sweep/estimate class mix, exponential inter-arrival
// times — then replays the identical plan against a server once per
// phase (cold, warm, peer) plus a salted burst phase (overload), and
// records throughput, tail latency, per-tier serve counts, and shed
// behaviour into a selcache-loadgen/v1 artifact.
//
// Open-loop means arrivals fire on schedule whether or not earlier
// requests have completed: a server that falls behind accumulates
// concurrent requests instead of silently slowing the generator, which
// is what makes the overload phase an honest admission-control probe.
//
// The plan (and its sha256 digest) depends only on the flags and seed,
// never on timing, so:
//   - two -plan-only runs with equal flags are byte-identical (CI pins this);
//   - -append can extend an artifact from an earlier process — e.g. a
//     peer phase against a restarted coordinator — and the digest proves
//     both processes replayed the same traffic;
//   - successful response bodies are content-hashed per cell and carried
//     in the artifact, so byte-identity of served results across cold,
//     warm, peer-served, and overloaded traffic is checked even across
//     processes. Any mismatch fails validation.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"selcache/internal/report"
	"selcache/internal/workloads/synth"
)

// cell is one point of the traffic corpus: a workload under one machine
// configuration and hardware mechanism.
type cell struct {
	workload, config, mech string
}

// planReq is one scheduled request: what to send and when, relative to
// the phase start.
type planReq struct {
	offset time.Duration
	class  string // run | sweep | estimate
	cell   cell
}

// plan is the full deterministic schedule: a base sequence replayed by
// the cold/warm/peer phases and a salted burst for the overload phase.
type plan struct {
	base     []planReq
	overload []planReq
	digest   string
}

var classOrder = []string{"run", "sweep", "estimate"}

func main() {
	var (
		addr      = flag.String("addr", "", "server base URL (e.g. http://127.0.0.1:8080); required unless -plan-only or -verify")
		out       = flag.String("out", "BENCH_loadgen.json", "artifact path")
		seed      = flag.Int64("seed", 1, "plan seed; equal seeds and flags render byte-identical plans")
		clients   = flag.Int("clients", 8, "connection-pool size (recorded in the artifact)")
		rate      = flag.Float64("rate", 50, "mean arrival rate for the base phases, requests/sec")
		requests  = flag.Int("requests", 100, "requests per base phase")
		cells     = flag.Int("cells", 32, "corpus size (named workloads first, then synthetic family#seed)")
		zipfS     = flag.Float64("zipf", 1.2, "zipfian popularity skew (must exceed 1)")
		mixFlag   = flag.String("mix", "run=0.6,sweep=0.2,estimate=0.2", "request-class fractions")
		named     = flag.String("named", "compress,swim,tpc-c", "named workloads joining the corpus tail (synthetic cells take the popular head)")
		overNamed = flag.String("overload-named", "swim,compress,mgrid,adi,applu,vpenta", "expensive named workloads for the overload burst")
		phases    = flag.String("phases", "cold,warm", "comma-separated phases to execute: cold, warm, peer, overload")
		overMult  = flag.Float64("overload-mult", 20, "overload arrival-rate multiplier")
		overReqs  = flag.Int("overload-requests", 0, "overload phase size (default: -requests)")
		planOnly  = flag.Bool("plan-only", false, "render and write the plan without sending traffic")
		appendTo  = flag.Bool("append", false, "extend an existing artifact (digests must match)")
		verify    = flag.String("verify", "", "validate an artifact and exit")
		reqTO     = flag.Duration("req-timeout", 2*time.Minute, "per-request timeout")
		phaseWait = flag.Duration("settle", 0, "sleep between phases (lets background fills drain)")
	)
	flag.Parse()

	if *verify != "" {
		l, err := report.Load[report.LoadgenJSON](*verify)
		if err != nil {
			fatalf("verify: %v", err)
		}
		fmt.Printf("%s: ok (%s, %d phases, digest %s)\n", *verify, l.Schema, len(l.Phases), l.PlanDigest[:12])
		return
	}

	mix, err := parseMix(*mixFlag)
	if err != nil {
		fatalf("%v", err)
	}
	if *overReqs == 0 {
		*overReqs = *requests
	}
	pl, err := buildPlan(*seed, *cells, *requests, *overReqs, *rate, *rate**overMult, *zipfS, mix, splitCSV(*named), splitCSV(*overNamed))
	if err != nil {
		fatalf("%v", err)
	}

	art := &report.LoadgenJSON{
		Schema:     report.LoadgenSchema,
		Seed:       *seed,
		Clients:    *clients,
		Cells:      *cells,
		ZipfS:      *zipfS,
		Mix:        mix,
		PlanDigest: pl.digest,
	}
	hashes := map[string]string{}
	if *appendTo {
		prev, err := report.Load[report.LoadgenJSON](*out)
		if err != nil {
			fatalf("append: %v", err)
		}
		if prev.PlanDigest != pl.digest {
			fatalf("append: artifact plan digest %s does not match this plan (%s); same seed and flags required",
				prev.PlanDigest[:12], pl.digest[:12])
		}
		art = prev
		art.PlanOnly = false
		for k, v := range art.BodyHashes {
			hashes[k] = v
		}
	}

	phaseNames := splitCSV(*phases)
	if *planOnly {
		art.PlanOnly = true
		for _, name := range phaseNames {
			n := uint64(len(pl.base))
			if name == "overload" {
				n = uint64(len(pl.overload))
			}
			art.Phases = append(art.Phases, report.LoadgenPhase{Name: name, Requests: n})
		}
		if err := report.Write(*out, art); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("plan %s: %d base + %d overload requests over %d cells -> %s\n",
			pl.digest[:12], len(pl.base), len(pl.overload), *cells, *out)
		return
	}

	if *addr == "" {
		fatalf("-addr is required to send traffic (or use -plan-only)")
	}
	client := &http.Client{
		Timeout: *reqTO,
		Transport: &http.Transport{
			MaxIdleConns:        *clients * 2,
			MaxIdleConnsPerHost: *clients * 2,
		},
	}
	var mismatches uint64
	for i, name := range phaseNames {
		reqs := pl.base
		if name == "overload" {
			reqs = pl.overload
		}
		if i > 0 && *phaseWait > 0 {
			time.Sleep(*phaseWait)
		}
		ph, miss := runPhase(client, strings.TrimSuffix(*addr, "/"), name, reqs, hashes)
		mismatches += miss
		art.Phases = append(art.Phases, ph)
		fmt.Printf("phase %-8s %5d req  %8.1f req/s  p50 %7.2fms  p99 %7.2fms  shed %d  tiers %v\n",
			name, ph.Requests, ph.RequestsPerSecond, ph.P50Millis, ph.P99Millis, ph.Shed, ph.ByTier)
	}
	art.BodyHashes = hashes
	art.BodyHashMismatches += mismatches
	if err := report.Write(*out, art); err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("wrote %s (digest %s)\n", *out, pl.digest[:12])
}

// buildPlan renders the deterministic schedule. Everything flows from one
// rand.Source, consumed in a fixed order, so equal inputs give equal
// plans — and equal digests — on every platform.
func buildPlan(seed int64, nCells, nBase, nOver int, baseRate, overRate, zipfS float64, mix map[string]float64, named, overNamed []string) (*plan, error) {
	if len(overNamed) == 0 {
		return nil, fmt.Errorf("-overload-named must list at least one workload")
	}
	if nCells < 1 || nBase < 1 || nOver < 1 {
		return nil, fmt.Errorf("cells, requests and overload-requests must be positive")
	}
	if zipfS <= 1 {
		return nil, fmt.Errorf("-zipf must exceed 1")
	}
	if baseRate <= 0 || overRate <= 0 {
		return nil, fmt.Errorf("arrival rates must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	fams := synth.Families()

	// Corpus: cheap synthetic kernels take the popular zipf head, the real
	// named benchmarks (each a half-second-plus simulation) sit in the
	// long tail — so the bulk of the traffic is light but every plan has a
	// few heavy hitters. Mechanisms alternate deterministically so the
	// corpus exercises both hardware paths.
	corpus := make([]cell, 0, nCells)
	synthN := nCells - len(named)
	if synthN < 0 {
		synthN = 0
	}
	for len(corpus) < synthN {
		f := fams[rng.Intn(len(fams))]
		corpus = append(corpus, cell{
			workload: fmt.Sprintf("%s#%d", f.Name(), rng.Intn(1000)),
			config:   "base",
			mech:     mechFor(rng),
		})
	}
	for _, w := range named {
		if len(corpus) == nCells {
			break
		}
		corpus = append(corpus, cell{w, "base", mechFor(rng)})
	}

	zipf := rand.NewZipf(rng, zipfS, 1, uint64(nCells-1))
	base := make([]planReq, nBase)
	var at time.Duration
	for i := range base {
		at += time.Duration(rng.ExpFloat64() / baseRate * float64(time.Second))
		base[i] = planReq{offset: at, class: classFor(rng, mix), cell: corpus[zipf.Uint64()]}
	}

	// The overload burst is all-run traffic over distinct never-cached
	// EXPENSIVE cells: real named benchmarks under the non-base machine
	// configurations (the base corpus only ever uses config "base", so
	// these are misses by construction). Cost matters: on a small host the
	// generator and server timeshare the CPU, and only a simulation that
	// far outlasts a scheduling quantum lets the remaining burst arrive,
	// overflow the backlog, and actually exercise shedding. Millisecond
	// synthetic cells serialize instead and nothing ever sheds.
	var overCells []cell
	for _, w := range overNamed {
		for _, cfg := range []string{"higher-mem-lat", "larger-l2", "larger-l1", "higher-l2-assoc", "higher-l1-assoc"} {
			for _, m := range []string{"bypass", "victim"} {
				overCells = append(overCells, cell{w, cfg, m})
			}
		}
	}
	rng.Shuffle(len(overCells), func(i, j int) { overCells[i], overCells[j] = overCells[j], overCells[i] })
	if nOver > len(overCells) {
		nOver = len(overCells) // repeats would be cache hits, not pressure
	}
	over := make([]planReq, nOver)
	at = 0
	for i := range over {
		at += time.Duration(rng.ExpFloat64() / overRate * float64(time.Second))
		over[i] = planReq{offset: at, class: "run", cell: overCells[i]}
	}

	h := sha256.New()
	for _, r := range base {
		fmt.Fprintf(h, "base %d %s %s %s %s\n", r.offset, r.class, r.cell.workload, r.cell.config, r.cell.mech)
	}
	for _, r := range over {
		fmt.Fprintf(h, "over %d %s %s %s %s\n", r.offset, r.class, r.cell.workload, r.cell.config, r.cell.mech)
	}
	return &plan{base: base, overload: over, digest: hex.EncodeToString(h.Sum(nil))}, nil
}

func mechFor(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return "bypass"
	}
	return "victim"
}

// classFor picks a request class from the mix, consuming exactly one
// random draw regardless of outcome.
func classFor(rng *rand.Rand, mix map[string]float64) string {
	u := rng.Float64()
	for _, c := range classOrder {
		u -= mix[c]
		if u < 0 {
			return c
		}
	}
	return "run"
}

// outcome is one completed request's record, folded into the phase totals
// under a lock on the collector side.
type outcome struct {
	status     int
	tier       string
	latency    time.Duration
	retryAfter bool
	hashKey    string
	bodyHash   string
	err        error
}

// runPhase replays a schedule open-loop against addr and folds the
// results into a LoadgenPhase. The hashes map accumulates per-cell body
// hashes across phases; the returned count is new mismatches.
func runPhase(client *http.Client, addr, name string, reqs []planReq, hashes map[string]string) (report.LoadgenPhase, uint64) {
	var (
		mu    sync.Mutex
		outs  = make([]outcome, 0, len(reqs))
		wg    sync.WaitGroup
		start = time.Now()
	)
	for _, r := range reqs {
		if d := r.offset - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(r planReq) {
			defer wg.Done()
			o := send(client, addr, r)
			mu.Lock()
			outs = append(outs, o)
			mu.Unlock()
		}(r)
	}
	wg.Wait()
	wall := time.Since(start)

	ph := report.LoadgenPhase{
		Name:      name,
		ByStatus:  map[string]uint64{},
		ByTier:    map[string]uint64{},
		WallNanos: wall.Nanoseconds(),
	}
	var (
		lats        []time.Duration
		withRetry   uint64
		newMismatch uint64
	)
	for _, o := range outs {
		if o.err != nil {
			ph.Errors++
			continue
		}
		ph.Requests++
		ph.ByStatus[strconv.Itoa(o.status)]++
		if o.status == http.StatusTooManyRequests {
			ph.Shed++
			if o.retryAfter {
				withRetry++
			}
			continue
		}
		if o.status/100 != 2 {
			continue
		}
		lats = append(lats, o.latency)
		if o.tier != "" {
			ph.ByTier[o.tier]++
		}
		if prev, ok := hashes[o.hashKey]; ok {
			if prev != o.bodyHash {
				newMismatch++
			}
		} else {
			hashes[o.hashKey] = o.bodyHash
		}
	}
	ph.RetryAfterSeen = ph.Shed > 0 && withRetry == ph.Shed
	if ph.Requests > 0 {
		ph.RequestsPerSecond = float64(ph.Requests) / wall.Seconds()
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		ph.P50Millis = float64(lats[(len(lats)-1)*50/100]) / float64(time.Millisecond)
		ph.P99Millis = float64(lats[(len(lats)-1)*99/100]) / float64(time.Millisecond)
	}
	return ph, newMismatch
}

// send issues one request and classifies the result. Bodies are hashed,
// never retained.
func send(client *http.Client, addr string, r planReq) outcome {
	var path, body string
	switch r.class {
	case "run":
		path = "/v1/run"
		body = fmt.Sprintf(`{"workload":%q,"config":%q,"mechanism":%q}`, r.cell.workload, r.cell.config, r.cell.mech)
	case "sweep":
		path = "/v1/sweep"
		body = fmt.Sprintf(`{"workloads":[%q],"configs":[%q],"mechanisms":[%q]}`, r.cell.workload, r.cell.config, r.cell.mech)
	default:
		path = "/v1/estimate"
		body = fmt.Sprintf(`{"workload":%q,"config":%q}`, r.cell.workload, r.cell.config)
	}
	start := time.Now()
	resp, err := client.Post(addr+path, "application/json", strings.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return outcome{err: err}
	}
	sum := sha256.Sum256(data)
	return outcome{
		status:     resp.StatusCode,
		tier:       resp.Header.Get("X-Selcache-Tier"),
		latency:    time.Since(start),
		retryAfter: resp.Header.Get("Retry-After") != "",
		hashKey:    r.class + "|" + r.cell.workload + "|" + r.cell.config + "|" + r.cell.mech,
		bodyHash:   hex.EncodeToString(sum[:]),
	}
}

func parseMix(s string) (map[string]float64, error) {
	mix := map[string]float64{}
	var total float64
	for _, part := range splitCSV(s) {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want class=fraction)", part)
		}
		known := false
		for _, c := range classOrder {
			known = known || c == k
		}
		if !known {
			return nil, fmt.Errorf("unknown class %q (want run, sweep or estimate)", k)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || f < 0 || f > 1 {
			return nil, fmt.Errorf("bad fraction %q for class %q", v, k)
		}
		mix[k] = f
		total += f
	}
	if total < 0.999 || total > 1.001 {
		return nil, fmt.Errorf("mix fractions sum to %g, want 1", total)
	}
	return mix, nil
}

func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}
