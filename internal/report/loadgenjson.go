package report

import "fmt"

// LoadgenSchema identifies the machine-readable traffic artifact emitted
// by cmd/loadgen (committed as BENCH_loadgen.json at the repo root).
// Consumers must reject files whose schema field differs; bump the suffix
// on any incompatible change.
const LoadgenSchema = "selcache-loadgen/v1"

// LoadgenPhase is one traffic phase's outcome: a named slice of the run
// (cold, warm, peer, overload) executed against one server. Latency
// quantiles cover successful (2xx) responses only — a shed request's
// near-instant 429 would otherwise flatter the tail.
type LoadgenPhase struct {
	Name string `json:"name"`
	// Requests counts completed requests (any status); Errors counts
	// transport failures that never produced a status.
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	// ByStatus counts responses per HTTP status code ("200", "429", ...);
	// ByTier counts successful run responses per X-Selcache-Tier value
	// (memory, disk, peer, remote, computed).
	ByStatus map[string]uint64 `json:"by_status"`
	ByTier   map[string]uint64 `json:"by_tier"`
	// Shed counts 429 responses; RetryAfterSeen reports whether every one
	// of them carried a Retry-After header.
	Shed           uint64 `json:"shed"`
	RetryAfterSeen bool   `json:"retry_after_seen"`
	// WallNanos is the phase's host wall time (varies run to run);
	// RequestsPerSecond divides completed requests by it.
	WallNanos         int64   `json:"wall_nanos"`
	RequestsPerSecond float64 `json:"requests_per_second"`
	P50Millis         float64 `json:"latency_p50_ms"`
	P99Millis         float64 `json:"latency_p99_ms"`
}

// LoadgenJSON is the traffic artifact: the deterministic plan identity
// (seed, corpus, mix, digest) plus per-phase measurements. With PlanOnly
// set the artifact describes the schedule without executing it — every
// field is then derived solely from the flags and seed, so two plan-only
// runs with the same inputs are byte-identical (CI compares them).
type LoadgenJSON struct {
	Schema  string `json:"schema"`
	Seed    int64  `json:"seed"`
	Clients int    `json:"clients"`
	// Cells is the zipfian cell population size (named + family#seed
	// synthetic workloads); ZipfS is the popularity skew exponent.
	Cells int     `json:"cells"`
	ZipfS float64 `json:"zipf_s"`
	// Mix is the request-class composition of the plan (fractions by
	// "run", "sweep", "estimate").
	Mix map[string]float64 `json:"mix"`
	// PlanDigest is the SHA-256 of the rendered request schedule. Two
	// artifacts with equal digests exercised identical traffic, whatever
	// servers they hit; append mode refuses to mix digests.
	PlanDigest string `json:"plan_digest"`
	PlanOnly   bool   `json:"plan_only,omitempty"`
	// BodyHashes maps "class|workload|config|mechanism" to the SHA-256 of
	// the first successful response body observed for that cell. Carried in
	// the artifact so append-mode runs (a later process hitting a restarted
	// or different server) check byte-identity against earlier phases.
	BodyHashes map[string]string `json:"body_hashes,omitempty"`
	// BodyHashMismatches counts cells whose successful response bytes
	// differed between phases — the byte-identity check across cold, warm,
	// peer-served, and loaded traffic. Validate rejects any nonzero value.
	BodyHashMismatches uint64         `json:"body_hash_mismatches"`
	Phases             []LoadgenPhase `json:"phases"`
}

// Validate checks the artifact's schema and structural invariants,
// including the acceptance-level ones: served bytes never varied by tier
// or load, and every shed response carried a Retry-After hint.
func (l *LoadgenJSON) Validate() error {
	if l.Schema != LoadgenSchema {
		return fmt.Errorf("loadgen: schema %q, want %q", l.Schema, LoadgenSchema)
	}
	if l.Clients < 1 {
		return fmt.Errorf("loadgen: clients %d < 1", l.Clients)
	}
	if l.Cells < 1 {
		return fmt.Errorf("loadgen: cells %d < 1", l.Cells)
	}
	if l.ZipfS <= 1 {
		return fmt.Errorf("loadgen: zipf_s %g must exceed 1", l.ZipfS)
	}
	if len(l.Mix) == 0 {
		return fmt.Errorf("loadgen: empty class mix")
	}
	var total float64
	for class, f := range l.Mix {
		if f < 0 || f > 1 {
			return fmt.Errorf("loadgen: mix[%s] = %g out of [0,1]", class, f)
		}
		total += f
	}
	if total < 0.999 || total > 1.001 {
		return fmt.Errorf("loadgen: mix fractions sum to %g, want 1", total)
	}
	if len(l.PlanDigest) != 64 {
		return fmt.Errorf("loadgen: plan digest %q is not a sha256 hex string", l.PlanDigest)
	}
	if l.BodyHashMismatches != 0 {
		return fmt.Errorf("loadgen: %d body-hash mismatches — served responses varied across phases", l.BodyHashMismatches)
	}
	if len(l.Phases) == 0 {
		return fmt.Errorf("loadgen: no phases")
	}
	seen := make(map[string]bool, len(l.Phases))
	for i, p := range l.Phases {
		if p.Name == "" {
			return fmt.Errorf("loadgen: phase %d has empty name", i)
		}
		if seen[p.Name] {
			return fmt.Errorf("loadgen: duplicate phase %q", p.Name)
		}
		seen[p.Name] = true
		if p.Requests == 0 {
			return fmt.Errorf("loadgen: phase %q completed zero requests", p.Name)
		}
		if l.PlanOnly {
			continue // a plan carries schedule counts, no measurements
		}
		if p.WallNanos <= 0 {
			return fmt.Errorf("loadgen: phase %q has non-positive wall time %d", p.Name, p.WallNanos)
		}
		if p.RequestsPerSecond <= 0 {
			return fmt.Errorf("loadgen: phase %q has non-positive throughput %g", p.Name, p.RequestsPerSecond)
		}
		if p.P50Millis < 0 || p.P99Millis < p.P50Millis {
			return fmt.Errorf("loadgen: phase %q quantiles p50=%g p99=%g are inconsistent", p.Name, p.P50Millis, p.P99Millis)
		}
		if p.Shed > 0 && !p.RetryAfterSeen {
			return fmt.Errorf("loadgen: phase %q shed %d requests but not every 429 carried Retry-After", p.Name, p.Shed)
		}
		var byStatus uint64
		for _, n := range p.ByStatus {
			byStatus += n
		}
		if byStatus != p.Requests {
			return fmt.Errorf("loadgen: phase %q status counts sum to %d, want %d", p.Name, byStatus, p.Requests)
		}
	}
	return nil
}
