package report

import "fmt"

// CorpusSchema identifies the machine-readable corpus-profile artifact
// emitted by `cmd/corpus -out` (committed as CORPUS_smoke.json at the repo
// root for the smoke-sized corpus). Consumers must reject files whose
// schema field differs; bump the suffix on any incompatible change.
//
// Unlike the bench artifact (BenchSchema), every field here is
// deterministic — no wall times — so regenerating an artifact from the
// same corpus parameters is byte-identical, and CI diffs the committed
// file against a fresh regeneration.
const CorpusSchema = "selcache-corpus/v1"

// CorpusVersionProfile is one simulated version's aggregate locality
// profile over every kernel of a class: counter totals plus the derived
// rates, accumulated in fingerprint order so the floats are
// order-independent.
type CorpusVersionProfile struct {
	Version      string  `json:"version"`
	Cycles       uint64  `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	MemOps       uint64  `json:"mem_ops"`
	L1MissPct    float64 `json:"l1_miss_pct"`
	L2MissPct    float64 `json:"l2_miss_pct"`
	TLBMissPct   float64 `json:"tlb_miss_pct"`
	// BufferHitPct is the bypass-buffer (MAT mechanism) hit rate;
	// SLDTSpatialPct is the share of SLDT decisions that predicted
	// spatial locality. Both are zero for versions that never arm the
	// mechanism.
	BufferHitPct   float64 `json:"buffer_hit_pct"`
	SLDTSpatialPct float64 `json:"sldt_spatial_pct"`
	// AvgImprovPct is the arithmetic-mean percentage cycle improvement
	// over the base version across the class's kernels.
	AvgImprovPct float64 `json:"avg_improv_pct"`
}

// CorpusClassProfile aggregates one class tuple's kernels.
type CorpusClassProfile struct {
	Class   string `json:"class"`
	Kernels int    `json:"kernels"`
	// Events is the total simulated instructions across every version
	// run of the class.
	Events uint64 `json:"events"`
	// Region-detection totals from the selective version's compile.
	SoftwareLoops     int `json:"software_loops"`
	HardwareLoops     int `json:"hardware_loops"`
	MixedLoops        int `json:"mixed_loops"`
	MarkersInserted   int `json:"markers_inserted"`
	MarkersEliminated int `json:"markers_eliminated"`

	Versions []CorpusVersionProfile `json:"versions"`
}

// CorpusJSON is the corpus-profile artifact: what was synthesized, how it
// was swept and spot-checked, and the per-class locality profiles.
type CorpusJSON struct {
	Schema string `json:"schema"`
	// Families lists the family names the corpus drew from, in draw
	// order; Requested is the kernel count asked for, Kernels the
	// fingerprint-distinct count actually swept, Duplicates how many
	// draws were dropped as fingerprint collisions.
	Families   []string `json:"families"`
	Requested  int      `json:"requested"`
	Kernels    int      `json:"kernels"`
	Duplicates int      `json:"duplicates"`
	BaseSeed   uint64   `json:"base_seed"`
	Machine    string   `json:"machine"`
	Mechanism  string   `json:"mechanism"`
	// CorpusFingerprint is the SHA-256 over the sorted kernel
	// fingerprints: two corpora with equal values contain identical
	// kernels.
	CorpusFingerprint string `json:"corpus_fingerprint"`
	// OracleSample is how many kernels went through differential-oracle
	// lockstep; OracleDivergences how many diverged (0 on a clean run).
	OracleSample      int `json:"oracle_sample"`
	OracleDivergences int `json:"oracle_divergences"`

	Profiles []CorpusClassProfile `json:"profiles"`
}

// Validate checks the artifact's schema and structural invariants.
func (c *CorpusJSON) Validate() error {
	if c.Schema != CorpusSchema {
		return fmt.Errorf("corpusjson: schema %q, want %q", c.Schema, CorpusSchema)
	}
	if len(c.Families) == 0 {
		return fmt.Errorf("corpusjson: no families")
	}
	if c.Kernels < 1 {
		return fmt.Errorf("corpusjson: %d kernels", c.Kernels)
	}
	if c.Requested < 1 {
		return fmt.Errorf("corpusjson: requested %d", c.Requested)
	}
	if c.Duplicates < 0 {
		return fmt.Errorf("corpusjson: negative duplicates %d", c.Duplicates)
	}
	if len(c.CorpusFingerprint) != 64 {
		return fmt.Errorf("corpusjson: corpus fingerprint %q is not a sha256 hex digest", c.CorpusFingerprint)
	}
	if c.OracleSample < 0 || c.OracleDivergences < 0 || c.OracleDivergences > c.OracleSample {
		return fmt.Errorf("corpusjson: oracle sample %d / divergences %d", c.OracleSample, c.OracleDivergences)
	}
	if len(c.Profiles) == 0 {
		return fmt.Errorf("corpusjson: no class profiles")
	}
	kernels := 0
	seen := make(map[string]bool, len(c.Profiles))
	prev := ""
	for i, p := range c.Profiles {
		switch {
		case p.Class == "":
			return fmt.Errorf("corpusjson: profile %d has empty class", i)
		case seen[p.Class]:
			return fmt.Errorf("corpusjson: duplicate class %q", p.Class)
		case p.Class < prev:
			return fmt.Errorf("corpusjson: classes not sorted (%q after %q)", p.Class, prev)
		case p.Kernels < 1:
			return fmt.Errorf("corpusjson: class %q has %d kernels", p.Class, p.Kernels)
		case p.Events == 0:
			return fmt.Errorf("corpusjson: class %q has zero events", p.Class)
		case len(p.Versions) == 0:
			return fmt.Errorf("corpusjson: class %q has no version profiles", p.Class)
		}
		seen[p.Class] = true
		prev = p.Class
		kernels += p.Kernels
		for _, v := range p.Versions {
			if v.Version == "" {
				return fmt.Errorf("corpusjson: class %q has an unnamed version profile", p.Class)
			}
			for _, r := range []struct {
				name string
				pct  float64
			}{
				{"l1_miss_pct", v.L1MissPct}, {"l2_miss_pct", v.L2MissPct},
				{"tlb_miss_pct", v.TLBMissPct}, {"buffer_hit_pct", v.BufferHitPct},
				{"sldt_spatial_pct", v.SLDTSpatialPct},
			} {
				if r.pct < 0 || r.pct > 100 {
					return fmt.Errorf("corpusjson: class %q version %q %s %g outside [0, 100]", p.Class, v.Version, r.name, r.pct)
				}
			}
		}
	}
	if kernels != c.Kernels {
		return fmt.Errorf("corpusjson: profiles cover %d kernels, header says %d", kernels, c.Kernels)
	}
	return nil
}
