package report

import "fmt"

// BenchSchema identifies the machine-readable perf artifact format emitted
// by `cmd/experiments -benchjson` (committed as BENCH_table3.json at the
// repo root). Consumers must reject files whose schema field differs; bump
// the suffix on any incompatible change.
const BenchSchema = "selcache-bench/v1"

// BenchCell is one benchmark's aggregate cost within a bench run: how many
// simulated events its replays covered and how much host wall time they
// took, summed across every (version, configuration, mechanism) cell that
// replayed it.
type BenchCell struct {
	Name       string  `json:"name"`
	Events     uint64  `json:"events"`
	WallNanos  int64   `json:"wall_nanos"`
	NsPerEvent float64 `json:"ns_per_event"`
}

// BenchJSON is the perf artifact: whole-run throughput plus per-benchmark
// breakdown. Wall times are host measurements and vary run to run; the
// schema and structure are what CI validates.
type BenchJSON struct {
	Schema          string      `json:"schema"`
	Run             string      `json:"run"`
	Workers         int         `json:"workers"`
	Events          uint64      `json:"events"`
	WallNanos       int64       `json:"wall_nanos"`
	EventsPerSecond float64     `json:"events_per_second"`
	Benchmarks      []BenchCell `json:"benchmarks"`
}

// Validate checks the artifact's schema and structural invariants.
func (b *BenchJSON) Validate() error {
	if b.Schema != BenchSchema {
		return fmt.Errorf("benchjson: schema %q, want %q", b.Schema, BenchSchema)
	}
	if b.Run == "" {
		return fmt.Errorf("benchjson: empty run selector")
	}
	if b.Workers < 1 {
		return fmt.Errorf("benchjson: workers %d < 1", b.Workers)
	}
	if b.Events == 0 {
		return fmt.Errorf("benchjson: zero events")
	}
	if b.WallNanos <= 0 {
		return fmt.Errorf("benchjson: non-positive wall time %d", b.WallNanos)
	}
	if b.EventsPerSecond <= 0 {
		return fmt.Errorf("benchjson: non-positive events/s %g", b.EventsPerSecond)
	}
	if len(b.Benchmarks) == 0 {
		return fmt.Errorf("benchjson: no per-benchmark cells")
	}
	seen := make(map[string]bool, len(b.Benchmarks))
	for i, c := range b.Benchmarks {
		switch {
		case c.Name == "":
			return fmt.Errorf("benchjson: cell %d has empty name", i)
		case seen[c.Name]:
			return fmt.Errorf("benchjson: duplicate cell %q", c.Name)
		case c.Events == 0:
			return fmt.Errorf("benchjson: cell %q has zero events", c.Name)
		case c.WallNanos <= 0:
			return fmt.Errorf("benchjson: cell %q has non-positive wall time %d", c.Name, c.WallNanos)
		case c.NsPerEvent <= 0:
			return fmt.Errorf("benchjson: cell %q has non-positive ns/event %g", c.Name, c.NsPerEvent)
		}
		seen[c.Name] = true
	}
	return nil
}

// Finalize fills the derived fields (per-cell ns/event, whole-run
// events/s) from the accumulated counters.
func (b *BenchJSON) Finalize() {
	for i := range b.Benchmarks {
		c := &b.Benchmarks[i]
		if c.Events > 0 {
			c.NsPerEvent = float64(c.WallNanos) / float64(c.Events)
		}
	}
	if b.WallNanos > 0 {
		b.EventsPerSecond = float64(b.Events) / (float64(b.WallNanos) * 1e-9)
	}
}
