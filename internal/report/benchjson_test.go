package report

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sampleBench() *BenchJSON {
	return &BenchJSON{
		Schema:    BenchSchema,
		Run:       "table3",
		Workers:   4,
		Events:    3000,
		WallNanos: 6000,
		Benchmarks: []BenchCell{
			{Name: "vpenta", Events: 1000, WallNanos: 2000},
			{Name: "tomcatv", Events: 2000, WallNanos: 4000},
		},
	}
}

func TestBenchFinalizeDerivations(t *testing.T) {
	b := sampleBench()
	b.Finalize()
	if got := b.Benchmarks[0].NsPerEvent; got != 2 {
		t.Errorf("cell 0 ns/event = %g, want 2", got)
	}
	if got := b.Benchmarks[1].NsPerEvent; got != 2 {
		t.Errorf("cell 1 ns/event = %g, want 2", got)
	}
	want := float64(b.Events) / (float64(b.WallNanos) * 1e-9)
	if math.Abs(b.EventsPerSecond-want) > 1e-6 {
		t.Errorf("events/s = %g, want %g", b.EventsPerSecond, want)
	}
	if err := b.Validate(); err != nil {
		t.Errorf("finalized sample fails validation: %v", err)
	}
}

func TestBenchValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*BenchJSON)
		want   string
	}{
		{"wrong schema", func(b *BenchJSON) { b.Schema = "selcache-bench/v0" }, "schema"},
		{"empty run", func(b *BenchJSON) { b.Run = "" }, "run selector"},
		{"zero workers", func(b *BenchJSON) { b.Workers = 0 }, "workers"},
		{"zero events", func(b *BenchJSON) { b.Events = 0 }, "zero events"},
		{"zero wall", func(b *BenchJSON) { b.WallNanos = 0 }, "wall time"},
		{"no cells", func(b *BenchJSON) { b.Benchmarks = nil }, "no per-benchmark"},
		{"unnamed cell", func(b *BenchJSON) { b.Benchmarks[0].Name = "" }, "empty name"},
		{"duplicate cell", func(b *BenchJSON) { b.Benchmarks[1].Name = b.Benchmarks[0].Name }, "duplicate"},
		{"zero-event cell", func(b *BenchJSON) { b.Benchmarks[1].Events = 0 }, "zero events"},
		{"zero-wall cell", func(b *BenchJSON) { b.Benchmarks[1].WallNanos = 0 }, "wall time"},
	}
	for _, c := range cases {
		b := sampleBench()
		b.Finalize()
		c.mutate(b)
		err := b.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted a broken artifact", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestBenchWriteLoadRoundTrip(t *testing.T) {
	b := sampleBench()
	b.Finalize()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := Write(path, b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 || data[len(data)-1] != '\n' {
		t.Error("artifact missing trailing newline")
	}
	got, err := Load[BenchJSON](path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != b.Schema || got.Run != b.Run || got.Events != b.Events ||
		got.Workers != b.Workers || len(got.Benchmarks) != len(b.Benchmarks) {
		t.Errorf("round trip mismatch: got %+v, want %+v", got, b)
	}
	for i := range b.Benchmarks {
		if got.Benchmarks[i] != b.Benchmarks[i] {
			t.Errorf("cell %d: got %+v, want %+v", i, got.Benchmarks[i], b.Benchmarks[i])
		}
	}
}

func TestBenchWriteFileRefusesInvalid(t *testing.T) {
	b := sampleBench() // not finalized: ns/event and events/s still zero
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := Write(path, b); err == nil {
		t.Fatal("Write accepted an unfinalized artifact")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("invalid artifact was still written")
	}
}

func TestLoadBenchJSONRejectsForeignSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(`{"schema":"other/v9"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load[BenchJSON](path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("foreign schema load: err = %v, want schema complaint", err)
	}
	if _, err := Load[BenchJSON](filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file load succeeded")
	}
}
