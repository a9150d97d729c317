// Command perfbench is the repository's benchmark. One invocation runs one
// workload — sweep or serve — for a fixed number of seconds and
// prints its metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is a separate, traced invocation that times calls into each module's
// public API from outside and reports the per-layer metrics. README.md in
// this directory defines every metric on each workload; layers.json maps
// every per-layer metric to the end-to-end metrics it should move.
//
// Build and run it from the repository root with perfbench/run.sh, which
// keeps the Go build cache inside the checkout:
//
//	bash perfbench/run.sh --workload sweep --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// stderr receives progress lines and the host record.
var stderr io.Writer = os.Stderr

// setupRounds is how many times each workload performs its set-up; setup_s
// is the median round, so one slow round cannot move it.
const setupRounds = 3

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ops counts operations attempted and failed; a failed operation is an
// output mismatch or a refused request.
type ops struct {
	attempted, failed int64
}

func (o *ops) check(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string // where a traced run writes its spans
}

// workloadFunc runs one workload and fills the metrics; host receives the
// host-condition diagnostics.
type workloadFunc func(opt options, host *hostRecord) (map[string]metric, ops, error)

var workloadFuncs = map[string]struct{ plain, traced workloadFunc }{
	"sweep": {runSweep, traceSweep},
	"serve": {runServe, traceServe},
}

func main() {
	start := time.Now()
	if err := run(os.Args[1:], os.Stdout, start); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer, start time.Time) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var opt options
	var traceFlag int
	fs.StringVar(&opt.workload, "workload", "", "workload: sweep or serve")
	fs.Int64Var(&opt.seed, "seed", 1, "input seed")
	fs.IntVar(&opt.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run reporting per-layer metrics")
	writeDigests := fs.String("write-digests", "", "record the sweep output digests into this file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *writeDigests != "" {
		return recordDigests(*writeDigests)
	}
	fns, ok := workloadFuncs[opt.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (want sweep or serve)", opt.workload)
	}
	if opt.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag)
	}
	opt.trace = traceFlag == 1
	opt.spans = filepath.Join(".bench_build", "spans-"+opt.workload+".json")

	host := newHostRecord(start, opt.seed)
	fn := fns.plain
	if opt.trace {
		fn = fns.traced
	}
	metrics, counts, err := fn(opt, host)
	if err != nil {
		return err
	}
	host.finish()
	hb, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		return err
	}
	fmt.Fprintln(stderr, string(hb))
	fmt.Fprintln(stdout, string(hb))
	out, err := json.Marshal(result{
		Correct:   counts.failed == 0,
		Attempted: counts.attempted,
		Failed:    counts.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(out))
	return nil
}
