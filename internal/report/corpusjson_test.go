package report

import (
	"path/filepath"
	"strings"
	"testing"
)

func validCorpus() *CorpusJSON {
	return &CorpusJSON{
		Schema:            CorpusSchema,
		Families:          []string{"shallow/affine/small/unit"},
		Requested:         2,
		Kernels:           2,
		BaseSeed:          1,
		Machine:           "base",
		Mechanism:         "bypass",
		CorpusFingerprint: strings.Repeat("ab", 32),
		OracleSample:      1,
		Profiles: []CorpusClassProfile{{
			Class:   "shallow/affine/small/unit",
			Kernels: 2,
			Events:  100,
			Versions: []CorpusVersionProfile{{
				Version: "base", Cycles: 10, Instructions: 100, L1MissPct: 12.5,
			}},
		}},
	}
}

func TestCorpusJSONValidate(t *testing.T) {
	if err := validCorpus().Validate(); err != nil {
		t.Fatalf("valid artifact rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*CorpusJSON)
		want string
	}{
		{"wrong schema", func(c *CorpusJSON) { c.Schema = "selcache-corpus/v0" }, "schema"},
		{"no families", func(c *CorpusJSON) { c.Families = nil }, "families"},
		{"zero kernels", func(c *CorpusJSON) { c.Kernels = 0 }, "kernels"},
		{"zero requested", func(c *CorpusJSON) { c.Requested = 0 }, "requested"},
		{"negative duplicates", func(c *CorpusJSON) { c.Duplicates = -1 }, "duplicates"},
		{"bad fingerprint", func(c *CorpusJSON) { c.CorpusFingerprint = "abc" }, "fingerprint"},
		{"divergences exceed sample", func(c *CorpusJSON) { c.OracleDivergences = 2 }, "oracle"},
		{"no profiles", func(c *CorpusJSON) { c.Profiles = nil }, "profiles"},
		{"empty class", func(c *CorpusJSON) { c.Profiles[0].Class = "" }, "empty class"},
		{"kernel sum mismatch", func(c *CorpusJSON) { c.Kernels = 3 }, "cover"},
		{"zero class events", func(c *CorpusJSON) { c.Profiles[0].Events = 0 }, "events"},
		{"no versions", func(c *CorpusJSON) { c.Profiles[0].Versions = nil }, "version"},
		{"unnamed version", func(c *CorpusJSON) { c.Profiles[0].Versions[0].Version = "" }, "unnamed"},
		{"rate out of range", func(c *CorpusJSON) { c.Profiles[0].Versions[0].L1MissPct = 101 }, "l1_miss_pct"},
		{"negative rate", func(c *CorpusJSON) { c.Profiles[0].Versions[0].TLBMissPct = -1 }, "tlb_miss_pct"},
		{
			"duplicate class",
			func(c *CorpusJSON) {
				c.Profiles = append(c.Profiles, c.Profiles[0])
				c.Kernels = 4
			},
			"duplicate",
		},
		{
			"unsorted classes",
			func(c *CorpusJSON) {
				extra := c.Profiles[0]
				extra.Class = "aaa/first"
				c.Profiles = append(c.Profiles, extra)
				c.Kernels = 4
			},
			"sorted",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := validCorpus()
			tc.mut(c)
			err := c.Validate()
			if err == nil {
				t.Fatal("invalid artifact accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCorpusJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.json")
	c := validCorpus()
	if err := Write(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := Load[CorpusJSON](path)
	if err != nil {
		t.Fatal(err)
	}
	if got.CorpusFingerprint != c.CorpusFingerprint || got.Kernels != c.Kernels {
		t.Fatalf("round trip changed the artifact: %+v", got)
	}
	bad := validCorpus()
	bad.Schema = "nope"
	if err := Write(path, bad); err == nil {
		t.Fatal("Write accepted an invalid artifact")
	}
}
