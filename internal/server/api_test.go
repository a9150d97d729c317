package server

import (
	"reflect"
	"testing"

	"selcache/internal/workloads"
)

// TestResolveSpecCanonicalWorkload checks that aliases of one synthetic
// kernel — the same family and seed spelled differently — resolve to the
// kernel's canonical name and so to one cache key, while canonical names
// resolve to themselves.
func TestResolveSpecCanonicalWorkload(t *testing.T) {
	canon, copts, err := ResolveSpec(RunRequest{Workload: "shallow/affine/small/unit#1"})
	if err != nil {
		t.Fatal(err)
	}
	if canon.Workload != "shallow/affine/small/unit#1" {
		t.Fatalf("canonical name resolved to %q", canon.Workload)
	}
	alias, aopts, err := ResolveSpec(RunRequest{Workload: "shallow/affine/small/unit#0001"})
	if err != nil {
		t.Fatal(err)
	}
	if alias != canon || alias.Key() != canon.Key() {
		t.Fatalf("alias spec %+v (key %s), canonical %+v (key %s)", alias, alias.Key(), canon, canon.Key())
	}
	if !reflect.DeepEqual(aopts, copts) {
		t.Fatal("alias and canonical name resolved to different options")
	}
	named, _, err := ResolveSpec(RunRequest{Workload: "swim"})
	if err != nil || named.Workload != "swim" {
		t.Fatalf("named benchmark: spec %+v, err %v", named, err)
	}
}

// fuzzRequest builds a request from fuzzed fields; the flag bits set the
// boolean knobs and the render-only fields, which must never reach the
// key.
func fuzzRequest(w, cfg, mech, pol string, flags uint8) RunRequest {
	r := RunRequest{
		Workload:      w,
		Config:        cfg,
		Mechanism:     mech,
		Policy:        pol,
		Classify:      flags&1 != 0,
		UpdateWhenOff: flags&2 != 0,
		WayMemo:       flags&4 != 0,
		Energy:        flags&8 != 0,
	}
	if flags&16 != 0 {
		r.Version = "selective"
	}
	if flags&32 != 0 {
		r.TimeoutMillis = 1000
	}
	return r
}

// FuzzResolveSpec checks the canonicalisation that turns a request into a
// content-addressed key. An accepted request re-resolves from its own
// spec to the same spec, options and key; and two accepted requests share
// a key exactly when they denote the same cell — the same canonical
// workload name and equal simulation options. A false share serves one
// cell's result for another; a false split runs one cell twice and shards
// it to two workers.
func FuzzResolveSpec(f *testing.F) {
	f.Add("swim", "", "", "", uint8(0), "swim", "base", "bypass", "lru", uint8(48))
	f.Add("shallow/affine/small/unit#1", "base", "victim", "ehc", uint8(5),
		"shallow/affine/small/unit#0001", "base", "victim", "ehc", uint8(5))
	f.Add("compress", "higher-mem-lat", "bypass", "", uint8(15), "compress", "higher-mem-lat", "bypass", "lru", uint8(14))
	f.Add("deep/affine/large/unit#7", "", "victim", "", uint8(2), "tpc-c", "", "", "ehc", uint8(0))
	f.Add("swim#1", "Base", "none", "LRU", uint8(0), "", "", "", "", uint8(0))
	f.Fuzz(func(t *testing.T, w1, c1, m1, p1 string, f1 uint8, w2, c2, m2, p2 string, f2 uint8) {
		type cell struct {
			spec Spec
			opts any
			name string
		}
		var cells []cell
		for _, req := range []RunRequest{fuzzRequest(w1, c1, m1, p1, f1), fuzzRequest(w2, c2, m2, p2, f2)} {
			spec, o, err := ResolveSpec(req)
			if err != nil {
				continue
			}
			again, o2, err := ResolveSpec(RunRequest{
				Workload: spec.Workload, Config: spec.Config, Mechanism: spec.Mechanism,
				Classify: spec.Classify, UpdateWhenOff: spec.UpdateWhenOff,
				Policy: spec.Policy, WayMemo: spec.WayMemo, Energy: spec.Energy,
			})
			if err != nil {
				t.Fatalf("spec %+v of accepted request %+v does not re-resolve: %v", spec, req, err)
			}
			if again != spec || again.Key() != spec.Key() || !reflect.DeepEqual(o2, o) {
				t.Fatalf("request %+v: spec %+v re-resolves to %+v", req, spec, again)
			}
			wl, ok := workloads.Resolve(req.Workload)
			if !ok {
				t.Fatalf("accepted request %+v names no workload", req)
			}
			cells = append(cells, cell{spec: spec, opts: o, name: wl.Name})
		}
		if len(cells) < 2 {
			return
		}
		a, b := cells[0], cells[1]
		sameKey := a.spec.Key() == b.spec.Key()
		sameCell := a.name == b.name && reflect.DeepEqual(a.opts, b.opts)
		if sameKey != sameCell {
			t.Fatalf("key shared %v but same cell %v:\n %+v (%s)\n %+v (%s)", sameKey, sameCell, a.spec, a.name, b.spec, b.name)
		}
	})
}
