// Command trace records, inspects and replays .sctrace event-stream files
// (see internal/trace for the format):
//
//	trace -record -workload swim -version selective -o swim.sctrace
//	trace -stats swim.sctrace            # header counters + size
//	trace -replay swim.sctrace -version selective
//
// Recording interprets the chosen program variant once and captures the
// raw access/compute/marker stream. Replay drives the full simulated
// machine from the file and prints the same statistics block a live
// cachesim run of that version would produce — byte-identical, because the
// machine cannot tell a replayed stream from a live one. The replay
// version selects the machine-side configuration (which hardware
// mechanism is active and whether it honors markers); it must match the
// recorded stream's class or the statistics describe a stream that
// version would never emit.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"selcache/internal/core"
	"selcache/internal/trace"
	"selcache/internal/workloads"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	record := fs.Bool("record", false, "record a workload's event stream")
	stats := fs.String("stats", "", "print header statistics of the .sctrace `file`")
	replay := fs.String("replay", "", "replay the .sctrace `file` through the simulator")
	workload := fs.String("workload", "", "workload to record (see -list)")
	version := fs.String("version", "selective", "base|pure-hardware|pure-software|combined|selective")
	out := fs.String("o", "", "output `file` for -record")
	list := fs.Bool("list", false, "list available workloads")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *list:
		for _, w := range workloads.All() {
			fmt.Fprintln(stdout, w.Name)
		}
		return nil
	case *record:
		return doRecord(stdout, *workload, *version, *out)
	case *stats != "":
		return doStats(stdout, *stats)
	case *replay != "":
		return doReplay(stdout, *replay, *version)
	default:
		fs.Usage()
		return fmt.Errorf("one of -record, -stats or -replay is required")
	}
}

func parseVersion(s string) (core.Version, error) {
	if v, ok := core.ParseVersion(strings.ToLower(s)); ok {
		return v, nil
	}
	return 0, fmt.Errorf("unknown version %q (want base|pure-hardware|pure-software|combined|selective)", s)
}

func doRecord(stdout io.Writer, workload, version, out string) error {
	if workload == "" {
		return fmt.Errorf("-record requires -workload (try -list)")
	}
	if out == "" {
		return fmt.Errorf("-record requires -o")
	}
	w, ok := workloads.ByName(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (try -list)", workload)
	}
	v, err := parseVersion(version)
	if err != nil {
		return err
	}
	t, _, _ := core.RecordTrace(w.Build, v, core.DefaultOptions())
	if err := t.WriteFile(out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "recorded %s %s: %d events, %d bytes -> %s\n",
		w.Name, v, t.Meta.Events, t.EncodedSize(), out)
	return nil
}

func doStats(stdout io.Writer, path string) error {
	t, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	m := t.Meta
	fmt.Fprintf(stdout, "%s:\n", path)
	fmt.Fprintf(stdout, "  events        %12d\n", m.Events)
	fmt.Fprintf(stdout, "  accesses      %12d  (%d reads, %d writes)\n", m.Accesses, m.Reads, m.Writes)
	fmt.Fprintf(stdout, "  compute       %12d  instructions in %d calls\n", m.ComputeInstr, m.ComputeCalls)
	fmt.Fprintf(stdout, "  markers       %12d  (%d ON, %d OFF)\n", m.Markers, m.OnMarkers, m.Markers-m.OnMarkers)
	fmt.Fprintf(stdout, "  instructions  %12d\n", m.Instructions())
	fmt.Fprintf(stdout, "  encoded size  %12d  bytes (%.2f bits/event)\n",
		t.EncodedSize(), float64(t.EncodedSize())*8/float64(m.Events))
	return nil
}

func doReplay(stdout io.Writer, path, version string) error {
	v, err := parseVersion(version)
	if err != nil {
		return err
	}
	t, err := trace.ReadFile(path)
	if err != nil {
		return err
	}
	res := core.ReplayTrace(t, v, core.DefaultOptions(), nil)
	st := res.Sim
	fmt.Fprintf(stdout, "replayed %s as %s:\n", path, v)
	fmt.Fprintf(stdout, "  cycles        %12d\n", st.Cycles)
	fmt.Fprintf(stdout, "  instructions  %12d\n", st.Instructions)
	fmt.Fprintf(stdout, "  L1 misses     %12d  (%.2f%% of %d accesses)\n",
		st.L1.Misses, 100*float64(st.L1.Misses)/float64(st.L1.Accesses), st.L1.Accesses)
	fmt.Fprintf(stdout, "  L2 misses     %12d\n", st.L2.Misses)
	fmt.Fprintf(stdout, "  IPC           %12.3f\n", st.IPC())
	fmt.Fprintf(stdout, "  wall time     %12.1f  ms\n", float64(res.Sim.WallNanos)/1e6)
	return nil
}
