package report

import (
	"encoding/json"
	"fmt"
	"os"
)

// Artifact is a committed machine-readable JSON artifact (BenchJSON,
// CorpusJSON, EnergyJSON, EstimateJSON, LoadgenJSON): a document that can
// check its own schema and structural invariants.
type Artifact interface {
	Validate() error
}

// Marshal renders a as indented JSON with a trailing newline, the form
// every committed artifact takes (diff-friendly, and byte-identical across
// regenerations of a deterministic artifact). It does not validate.
func Marshal(a Artifact) ([]byte, error) {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Write validates a and writes it to path in Marshal's form; an invalid
// artifact is never written.
func Write(path string, a Artifact) error {
	if err := a.Validate(); err != nil {
		return err
	}
	data, err := Marshal(a)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// decode parses and validates an artifact of type T.
func decode[T any, P interface {
	*T
	Artifact
}](data []byte) (P, error) {
	a := P(new(T))
	if err := json.Unmarshal(data, a); err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return a, nil
}

// Load reads and validates the artifact of type T at path, for example
// Load[BenchJSON](path). Decode and validation errors name the file.
func Load[T any, P interface {
	*T
	Artifact
}](path string) (P, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := decode[T, P](data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}
