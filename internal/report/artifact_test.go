package report

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzLoadArtifact feeds arbitrary bytes to the decoder of every artifact
// schema. Decoding must never panic, and any input a schema accepts must
// survive Write→Load: the reloaded artifact encodes to the same bytes as
// the accepted one, and a second Write→Load reproduces it exactly. (The
// first trip may turn an empty `omitempty` collection into nil — the JSON
// form cannot tell them apart — but must change nothing else.)
//
// The seeds are the committed artifacts, so the plain test run also proves
// each of them loads and round-trips. Run continuously with
// `go test ./internal/report -fuzz FuzzLoadArtifact -fuzzminimizetime 100x`:
// at the default minimization budget, shrinking an interesting input
// derived from a 176 KB seed stalls the run.
func FuzzLoadArtifact(f *testing.F) {
	seed[BenchJSON](f, "BENCH_table3.json")
	seed[CorpusJSON](f, "CORPUS_smoke.json")
	seed[EnergyJSON](f, "ENERGY_smoke.json")
	seed[EstimateJSON](f, "ESTIMATE_smoke.json")
	seed[LoadgenJSON](f, "BENCH_loadgen.json")
	f.Add([]byte(`{"schema":"` + BenchSchema + `"}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		roundTrip[BenchJSON](t, data)
		roundTrip[CorpusJSON](t, data)
		roundTrip[EnergyJSON](t, data)
		roundTrip[EstimateJSON](t, data)
		roundTrip[LoadgenJSON](t, data)
	})
}

// seed adds the committed artifact name, which must load as a T, to f's
// seed corpus.
func seed[T any, P interface {
	*T
	Artifact
}](f *testing.F, name string) {
	path := filepath.Join("..", "..", name)
	if _, err := Load[T, P](path); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
}

// roundTrip decodes data as a T and, when it is accepted, checks the
// Write→Load property FuzzLoadArtifact states.
func roundTrip[T any, P interface {
	*T
	Artifact
}](t *testing.T, data []byte) {
	a, err := decode[T, P](data)
	if err != nil {
		return
	}
	reload := func(a P) P {
		t.Helper()
		path := filepath.Join(t.TempDir(), "artifact.json")
		if err := Write(path, a); err != nil {
			t.Fatalf("%T: Write refused an accepted artifact: %v", a, err)
		}
		b, err := Load[T, P](path)
		if err != nil {
			t.Fatalf("%T: Load refused a written artifact: %v", a, err)
		}
		return b
	}
	b := reload(a)
	want, err := Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%T: Write→Load changed the encoding:\nbefore: %s\nafter:  %s", a, want, got)
	}
	if c := reload(b); !reflect.DeepEqual(c, b) {
		t.Fatalf("%T: second Write→Load changed the value:\nbefore: %+v\nafter:  %+v", a, b, c)
	}
}
