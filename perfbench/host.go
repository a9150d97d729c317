package main

import (
	"bufio"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostRecord is the host-condition record printed with every run. None of
// it is a gated metric: it exists so that two runs of the same code that
// disagree can be told apart by what the host was doing (README.md, "Host
// conditions").
type hostRecord struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// DRAMBeforeNs and DRAMAfterNs are the mean latency of a dependent
	// random read over an 8 MB table, probed just before and just after
	// the timed phase.
	DRAMBeforeNs float64 `json:"dram_probe_before_ns"`
	DRAMAfterNs  float64 `json:"dram_probe_after_ns"`
	// WallS and CPUS are the process's wall and CPU (user + system)
	// seconds; StealTicks is the host-wide steal time over the run, in
	// /proc/stat clock ticks.
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	StealTicks uint64  `json:"steal_ticks"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	// GCCycles and GCPauseMs are the Go collector's cycles and total
	// stop-the-world pause over the run.
	GCCycles  uint32  `json:"gc_cycles"`
	GCPauseMs float64 `json:"gc_pause_ms"`

	start      time.Time
	stealStart uint64
	seed       int64
	chase      []uint64
}

const (
	probeWords = 1 << 20 // 8 MB of uint64
	probeReads = 1 << 21
)

func newHostRecord(start time.Time, seed int64) *hostRecord {
	return &hostRecord{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		start:      start,
		stealStart: stealTicks(),
		seed:       seed,
	}
}

// probeBefore and probeAfter bracket a workload's timed phase.
func (h *hostRecord) probeBefore() { h.DRAMBeforeNs = h.probeDRAM() }
func (h *hostRecord) probeAfter()  { h.DRAMAfterNs = h.probeDRAM() }

// probeDRAM chases a seeded single-cycle permutation (Sattolo's algorithm)
// through an 8 MB table, so every read depends on the previous one and the
// hardware prefetcher cannot help: the mean is close to the host's memory
// latency as the process sees it at that moment.
func (h *hostRecord) probeDRAM() float64 {
	if h.chase == nil {
		rng := rand.New(rand.NewSource(h.seed))
		next := make([]uint64, probeWords)
		for i := range next {
			next[i] = uint64(i)
		}
		for i := len(next) - 1; i > 0; i-- {
			j := rng.Intn(i)
			next[i], next[j] = next[j], next[i]
		}
		h.chase = next
	}
	p := uint64(0)
	t0 := time.Now()
	for i := 0; i < probeReads; i++ {
		p = h.chase[p]
	}
	ns := float64(time.Since(t0).Nanoseconds()) / probeReads
	if p == probeWords { // unreachable; keeps the chase live
		ns = -1
	}
	return ns
}

// finish fills the end-of-run fields.
func (h *hostRecord) finish() {
	h.WallS = time.Since(h.start).Seconds()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		h.CPUS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	if s := stealTicks(); s >= h.stealStart {
		h.StealTicks = s - h.stealStart
	}
	h.PeakRSSMB = peakRSSMB()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.GCCycles = ms.NumGC
	h.GCPauseMs = float64(ms.PauseTotalNs) / 1e6
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// stealTicks reads the aggregate steal counter (the eighth value of the
// "cpu" line of /proc/stat); zero where the file is unavailable.
func stealTicks() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseUint(f[8], 10, 64)
	return n
}

// peakRSSMB returns the process's VmHWM in MB (10^6 bytes), or 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, _ := strconv.ParseFloat(f[0], 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}
