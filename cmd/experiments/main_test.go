package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"selcache/internal/experiments"
)

// TestRunFlagErrors pins the CLI error surface: bad flags, unknown -run
// selections and stray positional arguments return usage errors instead
// of starting a multi-minute regeneration.
func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"bad flag", []string{"-nonsense"}, "flag provided but not defined"},
		{"unknown run", []string{"-run", "nope"}, `unknown -run "nope"`},
		{"positional arg", []string{"table2"}, "unexpected argument"},
		{"positional after flag", []string{"-run", "table2", "extra"}, "unexpected argument"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%q) = %v, want error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}

// TestWriteSummaryWarnsOnDiskErrors pins the stderr summary shape, in
// particular that a non-zero disk-error count gets its own warning line
// (a silent count buried in the parenthetical was easy to miss) and that
// a clean persisted run does not warn.
func TestWriteSummaryWarnsOnDiskErrors(t *testing.T) {
	stats := experiments.TraceCacheStats{Hits: 10, Misses: 3, DiskLoads: 1, DiskErrors: 2, Streams: 3, Bytes: 1 << 20}
	var buf bytes.Buffer
	writeSummary(&buf, 5_000_000, 2*time.Second, 4, stats, true)
	out := buf.String()
	for _, want := range []string{
		"throughput: 5.0M simulated events",
		"trace cache: 10 hits, 3 misses",
		"1 loaded from disk, 2 disk errors",
		"warning: 2 trace disk errors",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	stats.DiskErrors = 0
	writeSummary(&buf, 5_000_000, 2*time.Second, 4, stats, true)
	if strings.Contains(buf.String(), "warning:") {
		t.Errorf("clean run should not warn:\n%s", buf.String())
	}

	// Without persistence the disk counters are omitted entirely.
	buf.Reset()
	writeSummary(&buf, 5_000_000, 2*time.Second, 4, stats, false)
	if strings.Contains(buf.String(), "loaded from disk") {
		t.Errorf("unpersisted run should not mention disk:\n%s", buf.String())
	}
}

// TestTable2MatchesGolden regenerates Table 2 through the command and
// requires it byte-identical to the Table 2 section of the committed
// experiments_output.txt: the section is a prefix of the golden file, and
// Figure 4 follows it. `make golden` checks the whole file.
func TestTable2MatchesGolden(t *testing.T) {
	golden, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-run", "table2"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	got := stdout.Bytes()
	if !bytes.HasPrefix(golden, got) {
		t.Fatalf("-run table2 output differs from experiments_output.txt:\n%s", got)
	}
	if rest := golden[len(got):]; !bytes.HasPrefix(rest, []byte("Figure 4:")) {
		t.Fatalf("-run table2 output ends mid-section; golden continues with %.40q", rest)
	}
}
