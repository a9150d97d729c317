package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"
	"unsafe"

	"selcache/internal/core"
	"selcache/internal/experiments"
	"selcache/internal/sim"
	"selcache/internal/workloads"
)

// minReps is the fewest timed repetitions the sweep workload runs, however
// short -seconds is.
const minReps = 3

// digests.json holds the output digests recorded at the commit that
// defined this benchmark (perfbench -write-digests): one per sweep cell
// version and one per cell's static estimate. Every timed repetition is
// checked against them.
//
//go:embed digests.json
var digestsJSON []byte

func loadDigests() (map[string]string, error) {
	var d map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// digest hashes the JSON form of v (with any WallNanos already zeroed).
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshaling %T: %v", v, err)) // plain structs; cannot fail
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

func statsDigest(st sim.RunStats) string {
	st.WallNanos = 0
	return digest(st)
}

// cell is one sweep cell: a paper benchmark under one machine
// configuration and mechanism.
type cell struct {
	w workloads.Workload
	o core.Options
}

// sweepCells lists the sweep workload's 13 cells: benchmark i runs under
// pair i mod 12 of ExperimentConfigs × {bypass, victim}, so every geometry
// and both mechanisms appear in each repetition.
func sweepCells() []cell {
	cfgs := sim.ExperimentConfigs()
	mechs := []sim.HWKind{sim.HWBypass, sim.HWVictim}
	var cells []cell
	for i, w := range workloads.All() {
		p := i % (len(cfgs) * len(mechs))
		o := core.DefaultOptions()
		o.Machine = cfgs[p/len(mechs)]
		o.Mechanism = mechs[p%len(mechs)]
		cells = append(cells, cell{w: w, o: o})
	}
	return cells
}

func (c cell) key(v core.Version) string {
	return fmt.Sprintf("sweep/%s/%s/%s/%s", c.w.Name, c.o.Machine.Name, c.o.Mechanism, v)
}

// checkCell checks every version of a sweep cell's statistics against the
// recorded digests, one operation each, and returns the instructions the
// versions simulated.
func checkCell(want map[string]string, c cell, stats [core.NumVersions]sim.RunStats, counts *ops) uint64 {
	var instr uint64
	for _, v := range core.Versions() {
		instr += stats[v].Instructions
		counts.check(statsDigest(stats[v]) == want[c.key(v)])
	}
	return instr
}

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID, which package
// syscall does not name.
const clockProcessCPUTime = 2

// processTime is the CPU time of the whole process, every thread's, to the
// nanosecond (getrusage reports microseconds). Set-up and the sweep
// workload are timed with it: work on any goroutine counts, such as the
// collector's background marking or a decoder moved onto a goroutine of
// its own, while the time the hypervisor gave the CPU to other guests
// (steal, which the host record reports) does not.
func processTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("perfbench: clock_gettime: %v", errno)) // a valid clock id cannot fail
	}
	return time.Duration(ts.Nano())
}

// fillTraceCache records and packs every stream the cells replay, so the
// timed phase is pure replay, and returns how long each stream took (ms of
// process CPU time).
func fillTraceCache(cells []cell) (*experiments.TraceCache, []float64, error) {
	tc := experiments.NewTraceCache("")
	var recordMs []float64
	for _, c := range cells {
		for _, v := range core.Versions() {
			t0 := processTime()
			misses := tc.Stats().Misses
			_, ok := tc.Get(c.w, v, c.o).BlockCursor()
			if !ok {
				return nil, nil, fmt.Errorf("%s %s: stream does not pack", c.w.Name, v)
			}
			if tc.Stats().Misses > misses {
				recordMs = append(recordMs, ms(processTime()-t0))
			}
		}
	}
	return tc, recordMs, nil
}

// setUp performs a workload's set-up setupRounds times and returns the
// last round's state with the median round time in seconds of process CPU
// time, which leaves out waiting and steal. The first round is timed from
// process start, so it includes start-up.
// Between rounds, untimed, release (when non-nil) stops the previous
// round's state and the collector reclaims it.
func setUp[T any](fn func() (T, error), release func(T) error) (T, float64, error) {
	var state T
	var secs []float64
	var t0 time.Duration
	for r := 0; r < setupRounds; r++ {
		if r > 0 {
			if release != nil {
				if err := release(state); err != nil {
					return state, 0, err
				}
			}
			var zero T
			state = zero
			runtime.GC()
			debug.FreeOSMemory()
			t0 = processTime()
		}
		var err error
		if state, err = fn(); err != nil {
			return state, 0, err
		}
		secs = append(secs, (processTime() - t0).Seconds())
	}
	return state, median(secs), nil
}

// repeat runs rep at least minReps times and until seconds have passed,
// returning the per-repetition rates rep reports.
func repeat(seconds int, rep func() float64) []float64 {
	var rates []float64
	t0 := time.Now()
	limit := time.Duration(seconds) * time.Second
	for r := 0; r < minReps || time.Since(t0) < limit; r++ {
		rates = append(rates, rep())
	}
	return rates
}

func estimateKey(c cell) string { return "estimate/" + c.w.Name + "/" + c.o.Machine.Name }

// hitRounds is how many times each repetition looks up every version of a
// cell in the filled trace cache before replaying it.
const hitRounds = 20

// timeHits looks up every version of c in the filled trace cache hitRounds
// times, as RunRow does before each replay — TraceCache.Get, then a
// BlockCursor on the packed stream — timing each lookup alone in wall
// time (a lookup is far shorter than a scheduler tick, so a preemption
// lands in few samples) and appending it to lat[v]. It reports whether
// every lookup hit and packed.
func timeHits(tc *experiments.TraceCache, c cell, lat [][]float64) bool {
	misses := tc.Stats().Misses
	ok := true
	for r := 0; r < hitRounds; r++ {
		for _, v := range core.Versions() {
			t0 := time.Now()
			_, packs := tc.Get(c.w, v, c.o).BlockCursor()
			lat[v] = append(lat[v], ms(time.Since(t0)))
			ok = ok && packs
		}
	}
	return ok && tc.Stats().Misses == misses
}

// runSweep runs the sweep workload. The set-up fills a trace cache (each
// stream recorded is a trace-cache miss). Each repetition then, for every
// cell in a seeded order, estimates the cell statically, looks its streams
// up in the filled cache (trace-cache hits), replays it from there and
// estimates it again, checking every output against digests.json. The
// estimates are spread over the repetition, as the replays are, so each
// figure samples the host throughout the run.
//
// Each figure times its own operation, so one host hiccup cannot move
// several: sim_events_per_s the replays, hit_* the lookups, estimate_p50_ms
// and goodput_rps the estimates, miss_p50_ms and setup_s the recording.
// Times are process CPU time (processTime), except the lookups'. They are
// summarised per cell (or stream) first: its median over the repetitions
// (or set-up rounds), so a neighbour burst that slows fewer than half of
// one cell's samples moves no figure. Across cells the p50 figures are
// geometric means, as benchmark suites summarise unlike programs: the
// median of 13 fixed programs would be one program's time and carry all of
// its noise. The rate is every cell's instructions over the sum of the
// cells' median replay times. hit_p50_ms and hit_p90_ms are each cell
// version's median and p90 lookup, geometric mean over the versions.
func runSweep(opt options, host *hostRecord) (map[string]metric, ops, error) {
	want, err := loadDigests()
	if err != nil {
		return nil, ops{}, err
	}
	cells := sweepCells()
	var missMs [][]float64 // per stream, per set-up round
	tc, setupS, err := setUp(func() (*experiments.TraceCache, error) {
		tc, recordMs, err := fillTraceCache(cells)
		for i, d := range recordMs {
			if i == len(missMs) {
				missMs = append(missMs, nil)
			}
			missMs[i] = append(missMs[i], d)
		}
		return tc, err
	}, nil)
	if err != nil {
		return nil, ops{}, err
	}
	rng := rand.New(rand.NewSource(opt.seed))
	var counts ops
	replayMs := make([][]float64, len(cells))   // per cell, per repetition
	estimateMs := make([][]float64, len(cells)) // per cell, per estimate
	hitMs := make([][]float64, len(cells)*core.NumVersions)
	instr := make([]uint64, len(cells))
	var estimates int64
	var estimateTotal time.Duration
	estimate := func(i int) {
		t0 := processTime()
		est := core.EstimateVariants(cells[i].w.Build, cells[i].o)
		took := processTime() - t0
		estimateMs[i] = append(estimateMs[i], ms(took))
		estimateTotal += took
		ok := digest(est) == want[estimateKey(cells[i])]
		if ok {
			estimates++
		}
		counts.check(ok)
	}
	host.probeBefore()
	rates := repeat(opt.seconds, func() float64 {
		// Each repetition starts from a collected heap, so no collection
		// the last one left running overlaps this one's timings.
		runtime.GC()
		var replay time.Duration
		var n uint64
		for _, i := range rng.Perm(len(cells)) {
			estimate(i)
			counts.check(timeHits(tc, cells[i], hitMs[i*core.NumVersions:(i+1)*core.NumVersions]))
			t0 := processTime()
			row := experiments.RunRow(cells[i].w, cells[i].o, tc)
			took := processTime() - t0
			replayMs[i] = append(replayMs[i], ms(took))
			replay += took
			instr[i] = checkCell(want, cells[i], row.Stats, &counts)
			n += instr[i]
			estimate(i)
		}
		return float64(n) / replay.Seconds()
	})
	host.probeAfter()
	fmt.Fprintf(stderr, "per-repetition rates (1/s): %.4g\n", rates)
	cellMs := medians(replayMs)
	var n uint64
	var total float64
	for i := range cells {
		n += instr[i]
		total += cellMs[i]
	}
	hitP90 := make([]float64, len(hitMs))
	for i, h := range hitMs {
		hitP90[i] = quantile(h, 0.9)
	}
	return map[string]metric{
		"setup_s":          {setupS, "s"},
		"sim_events_per_s": {float64(n) / (total / 1e3), "1/s"},
		"peak_rss_mb":      {peakRSSMB(), "MB"},
		"goodput_rps":      {float64(estimates) / estimateTotal.Seconds(), "1/s"},
		"hit_p50_ms":       {geomean(medians(hitMs)), "ms"},
		"hit_p90_ms":       {geomean(hitP90), "ms"},
		"estimate_p50_ms":  {geomean(medians(estimateMs)), "ms"},
		"miss_p50_ms":      {geomean(medians(missMs)), "ms"},
	}, counts, nil
}

// recordDigests writes digests.json from the current code: one sweep
// repetition and every cell's estimate.
func recordDigests(path string) error {
	d := map[string]string{}
	tc := experiments.NewTraceCache("")
	for _, c := range sweepCells() {
		row := experiments.RunRow(c.w, c.o, tc)
		for _, v := range core.Versions() {
			d[c.key(v)] = statsDigest(row.Stats[v])
		}
		d[estimateKey(c)] = digest(core.EstimateVariants(c.w.Build, c.o))
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
