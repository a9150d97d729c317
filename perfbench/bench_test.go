package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"selcache/internal/core"
	"selcache/internal/experiments"
)

// cheapestCell is the sweep cell the tests replay: vpenta, a small
// regular kernel.
func cheapestCell(t *testing.T) cell {
	for _, c := range sweepCells() {
		if c.w.Name == "vpenta" {
			return c
		}
	}
	t.Fatal("vpenta is not a sweep cell")
	return cell{}
}

func TestCellDigestsMatchAndAFlippedDigestFails(t *testing.T) {
	want, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	c := cheapestCell(t)
	row := experiments.RunRow(c.w, c.o, nil)

	var counts ops
	checkCell(want, c, row.Stats, &counts)
	if counts.attempted != int64(core.NumVersions) || counts.failed != 0 {
		t.Fatalf("recorded digests: %d attempted, %d failed; want %d, 0", counts.attempted, counts.failed, core.NumVersions)
	}

	flipped := map[string]string{}
	for k, v := range want {
		flipped[k] = v
	}
	k := c.key(core.Selective)
	flipped[k] = strings.Repeat("0", len(want[k]))
	counts = ops{}
	checkCell(flipped, c, row.Stats, &counts)
	if counts.failed != 1 {
		t.Fatalf("one flipped digest: %d failed, want 1", counts.failed)
	}
}

func TestServePlanIsSeeded(t *testing.T) {
	a, b := newServePlan(7, 3000), newServePlan(7, 3000)
	if a.digest != b.digest || !reflect.DeepEqual(a.reqs, b.reqs) || !reflect.DeepEqual(a.cold, b.cold) {
		t.Fatal("equal seeds gave different plans")
	}
	if c := newServePlan(8, 3000); c.digest == a.digest {
		t.Fatal("different seeds gave the same plan digest")
	}
	warm := map[string]bool{}
	for _, rr := range a.warm {
		warm[rr.Workload] = true
	}
	seen := map[string]bool{}
	var kinds [numKinds]int
	for _, r := range a.reqs {
		kinds[r.kind]++
		if r.kind != kindMiss {
			continue
		}
		if warm[r.run.Workload] || seen[r.run.Workload] {
			t.Fatalf("cold cell %s was requested before", r.run.Workload)
		}
		seen[r.run.Workload] = true
	}
	for k, n := range kinds {
		if n == 0 {
			t.Fatalf("plan has no %s requests", kindNames[k])
		}
	}
}

// TestServeMismatchIsAFailure serves a short plan, then tampers with one
// cell's first body: every request for that cell must count as failed.
func TestServeMismatchIsAFailure(t *testing.T) {
	p := newServePlan(3, 200)
	env, err := setUpServe(p)
	if err != nil {
		t.Fatal(err)
	}
	res := closedLoop(env, p)
	if err := env.close(); err != nil {
		t.Fatal(err)
	}
	clean := res
	clean.done = append([]served(nil), res.done...)
	if _, err := verifyRuns(p, &clean); err != nil {
		t.Fatal(err)
	}
	var counts ops
	summarise(p, clean, &counts)
	if counts.attempted != int64(len(p.reqs)) || counts.failed != 0 {
		t.Fatalf("clean run: %d attempted, %d failed; want %d, 0", counts.attempted, counts.failed, len(p.reqs))
	}

	victim := p.reqs[res.done[0].idx]
	for _, s := range res.done {
		if r := p.reqs[s.idx]; r.kind == kindHit {
			victim = r
			break
		}
	}
	res.first[victim.cell] = bytes.Replace(res.first[victim.cell], []byte(`"cycles":`), []byte(`"cycles":1`), 1)
	if _, err := verifyRuns(p, &res); err != nil {
		t.Fatal(err)
	}
	counts = ops{}
	summarise(p, res, &counts)
	var forVictim int64
	for _, s := range res.done {
		if p.reqs[s.idx].cell == victim.cell {
			forVictim++
		}
	}
	if counts.failed != forVictim {
		t.Fatalf("tampered cell: %d failed, want %d", counts.failed, forVictim)
	}
}

// TestLayersMatchBenchmarkJSON keeps layers.json and the per_layer list
// of BENCHMARK.json naming the same metrics with the same units.
func TestLayersMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	defs, err := loadLayers()
	if err != nil {
		t.Fatal(err)
	}
	if len(defs) != len(bench.PerLayer) {
		t.Fatalf("layers.json has %d metrics, BENCHMARK.json %d", len(defs), len(bench.PerLayer))
	}
	for i, d := range defs {
		got := bench.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("metric %d: BENCHMARK.json %+v, layers.json %s %s %s", i, got, d.Name, d.Unit, d.Better)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	tr.begin("outer")
	tr.do("inner", func() { time.Sleep(2 * time.Millisecond) })
	tr.end()
	l := tr.layers()
	outer, inner := l["outer"], l["inner"]
	total := time.Duration(tr.spans[0].End - tr.spans[0].Start)
	if inner.self < 2*time.Millisecond || outer.self+inner.self != total {
		t.Fatalf("outer self %v + inner self %v, outer span %v", outer.self, inner.self, total)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); got < 3.69 || got > 3.71 {
		t.Fatalf("p90 = %v, want 3.7", got)
	}
	if xs[0] != 4 {
		t.Fatal("quantile sorted its input")
	}
	if got := geomean([]float64{1, 4, 16}); got < 3.999 || got > 4.001 {
		t.Fatalf("geomean = %v, want 4", got)
	}
}
