package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"selcache/internal/experiments"
)

// specN returns a distinct valid spec (unknown workloads are fine here:
// the cache layer never resolves them).
func specN(n string) Spec {
	return Spec{Workload: n, Config: "base", Mechanism: "bypass"}
}

func storedN(n string) StoredResult {
	return StoredResult{Spec: specN(n), Row: experiments.Row{Benchmark: n}}
}

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(2, "")
	for _, n := range []string{"a", "b", "c"} {
		c.put(specN(n).Key(), storedN(n))
	}
	// "a" is the LRU victim.
	if _, _, ok := c.get(specN("a").Key()); ok {
		t.Fatal("evicted entry still present")
	}
	for _, n := range []string{"b", "c"} {
		if _, _, ok := c.get(specN(n).Key()); !ok {
			t.Fatalf("entry %q missing", n)
		}
	}
	st := c.snapshot()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("snapshot = %+v, want 1 eviction, 2 entries", st)
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("snapshot = %+v, want 2 hits, 1 miss", st)
	}

	// Touching "b" then inserting "d" must evict "c", not "b".
	c.get(specN("b").Key())
	c.put(specN("d").Key(), storedN("d"))
	if _, _, ok := c.get(specN("b").Key()); !ok {
		t.Fatal("recently-used entry evicted")
	}
	if _, _, ok := c.get(specN("c").Key()); ok {
		t.Fatal("LRU entry survived")
	}
}

func TestResultCacheDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := specN("swim").Key()

	c := newResultCache(4, dir)
	c.put(key, storedN("swim"))

	// A fresh cache over the same directory serves the persisted result
	// and promotes it into memory.
	c2 := newResultCache(4, dir)
	sr, _, ok := c2.get(key)
	if !ok {
		t.Fatal("persisted result not found")
	}
	if sr.Row.Benchmark != "swim" {
		t.Fatalf("round-tripped benchmark %q", sr.Row.Benchmark)
	}
	st := c2.snapshot()
	if st.DiskLoads != 1 || st.Hits != 1 {
		t.Fatalf("snapshot = %+v, want 1 disk load counted as a hit", st)
	}
	// Second get comes from memory.
	if _, _, ok := c2.get(key); !ok {
		t.Fatal("promoted result missing")
	}
	if st := c2.snapshot(); st.DiskLoads != 1 {
		t.Fatalf("snapshot = %+v, memory hit must not touch disk", st)
	}
}

func TestResultCacheCorruptDiskFile(t *testing.T) {
	dir := t.TempDir()
	key := specN("swim").Key()
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := newResultCache(4, dir)
	if _, _, ok := c.get(key); ok {
		t.Fatal("corrupt file served as a result")
	}
	st := c.snapshot()
	if st.DiskErrors != 1 || st.Misses != 1 {
		t.Fatalf("snapshot = %+v, want 1 disk error and 1 miss", st)
	}
}

func TestResultCacheRejectsMismatchedStoredSpec(t *testing.T) {
	dir := t.TempDir()
	key := specN("swim").Key()
	// A syntactically valid file whose spec hashes to a different key
	// (e.g. copied between directories by hand) must not be served.
	c := newResultCache(4, dir)
	c.put(specN("applu").Key(), storedN("applu"))
	src, _ := os.ReadFile(filepath.Join(dir, specN("applu").Key()+".json"))
	if err := os.WriteFile(filepath.Join(dir, key+".json"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.get(key); ok {
		t.Fatal("mismatched stored spec served as a result")
	}
	if st := c.snapshot(); st.DiskErrors != 1 {
		t.Fatalf("snapshot = %+v, want 1 disk error", st)
	}
}

func TestValidKey(t *testing.T) {
	good := specN("x").Key()
	if !validKey(good) {
		t.Fatalf("validKey(%q) = false", good)
	}
	for _, bad := range []string{"", "short", good[:63], good + "0", "../../../../etc/passwd", good[:60] + "ZZZZ"} {
		if validKey(bad) {
			t.Errorf("validKey(%q) = true", bad)
		}
	}
}

// TestResultCacheConcurrentFills hammers a tiny LRU from many goroutines
// (the sweep fan-out fills the cache exactly like this) and checks the
// structural invariants afterwards: capacity respected, map and list in
// agreement, values uncorrupted. CI's -race job gives this teeth.
func TestResultCacheConcurrentFills(t *testing.T) {
	const capacity = 8
	c := newResultCache(capacity, "")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := fmt.Sprintf("wl-%d", (g*31+i)%10)
				key := specN(n).Key()
				if sr, _, ok := c.get(key); ok {
					if sr.Row.Benchmark != n {
						panic(fmt.Sprintf("key %s returned row for %s", n, sr.Row.Benchmark))
					}
					continue
				}
				c.put(key, storedN(n))
			}
		}(g)
	}
	wg.Wait()

	snap := c.snapshot()
	if snap.Entries > capacity {
		t.Fatalf("cache holds %d entries, capacity %d", snap.Entries, capacity)
	}
	if snap.Hits == 0 || snap.Misses == 0 || snap.Evictions == 0 {
		t.Fatalf("stats = %+v, want hits, misses and evictions all exercised", snap)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ll.Len() != len(c.items) {
		t.Fatalf("list has %d entries, map has %d", c.ll.Len(), len(c.items))
	}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry)
		if c.items[e.key] != el {
			t.Fatalf("map entry for %s does not point at its list element", e.key)
		}
		if specN(e.val.Row.Benchmark).Key() != e.key {
			t.Fatalf("entry %s holds the value for %s", e.key, e.val.Row.Benchmark)
		}
	}
}

// TestCorruptFileQuarantinedOnce is the regression for the unbounded
// DiskErrors bug: before quarantining, a corrupt persisted file was
// re-read and re-failed on every get of its key. Now the first failure
// renames it to <key>.corrupt and later gets are plain misses.
func TestCorruptFileQuarantinedOnce(t *testing.T) {
	dir := t.TempDir()
	key := specN("swim").Key()
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := newResultCache(4, dir)
	for i := 0; i < 5; i++ {
		if _, _, ok := c.get(key); ok {
			t.Fatalf("get %d served a corrupt file", i)
		}
	}
	st := c.snapshot()
	if st.DiskErrors != 1 {
		t.Fatalf("DiskErrors = %d after 5 gets, want exactly 1", st.DiskErrors)
	}
	if st.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", st.Quarantined)
	}
	if _, err := os.Stat(filepath.Join(dir, key+".corrupt")); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, key+".json")); !os.IsNotExist(err) {
		t.Fatalf("corrupt original still present (err=%v)", err)
	}

	// The key is recomputable: a fresh put persists cleanly and the next
	// get is a disk/memory hit again.
	c.put(key, storedN("swim"))
	if _, tier, ok := c.get(key); !ok || tier != TierMemory {
		t.Fatalf("re-put entry: ok=%v tier=%q", ok, tier)
	}
	c2 := newResultCache(4, dir)
	if _, tier, ok := c2.get(key); !ok || tier != TierDisk {
		t.Fatalf("re-persisted entry: ok=%v tier=%q", ok, tier)
	}
}

// TestWrongHashFileQuarantined: a syntactically valid file whose stored
// spec hashes elsewhere (hand-copied between directories) is quarantined
// just like a torn write.
func TestWrongHashFileQuarantined(t *testing.T) {
	dir := t.TempDir()
	key := specN("swim").Key()
	c := newResultCache(4, dir)
	c.put(specN("applu").Key(), storedN("applu"))
	src, _ := os.ReadFile(filepath.Join(dir, specN("applu").Key()+".json"))
	if err := os.WriteFile(filepath.Join(dir, key+".json"), src, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, ok := c.get(key); ok {
			t.Fatal("mismatched stored spec served as a result")
		}
	}
	st := c.snapshot()
	if st.DiskErrors != 1 || st.Quarantined != 1 {
		t.Fatalf("snapshot = %+v, want 1 disk error and 1 quarantine", st)
	}
	// The donor entry is untouched.
	if _, _, ok := c.get(specN("applu").Key()); !ok {
		t.Fatal("quarantine touched the wrong key")
	}
}

// TestSweepOrphanedTmpFiles simulates a crash between CreateTemp and the
// atomic rename: the leaked <key>.tmp* files must be swept when the cache
// reopens, while foreign files in a shared directory survive.
func TestSweepOrphanedTmpFiles(t *testing.T) {
	dir := t.TempDir()
	key := specN("swim").Key()

	// Crash simulation: run the real persist path up to the temp write,
	// then "die" (never rename) — twice, like two crashed processes.
	for i := 0; i < 2; i++ {
		tmp, err := os.CreateTemp(dir, key+".tmp*")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tmp.Write([]byte("{половина")); err != nil {
			t.Fatal(err)
		}
		tmp.Close()
	}
	// Files the sweep must NOT touch: a live result, a foreign temp file,
	// and a tmp-suffixed name whose prefix is not a result key.
	keep := []string{key + ".json", "notes.tmp1234", "short.tmp"}
	for _, name := range keep {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	c := newResultCache(4, dir)
	st := c.snapshot()
	if st.TmpSwept != 2 {
		t.Fatalf("TmpSwept = %d, want 2", st.TmpSwept)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != len(keep) {
		t.Fatalf("directory holds %d files %v, want the %d kept ones", len(left), left, len(keep))
	}
	for _, name := range keep {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("sweep removed %s: %v", name, err)
		}
	}
}

// TestPersistAfterSweepRoundTrips: sweeping at open must not break the
// normal persist path that uses the same temp-name pattern.
func TestPersistAfterSweepRoundTrips(t *testing.T) {
	dir := t.TempDir()
	key := specN("swim").Key()
	tmp, err := os.CreateTemp(dir, key+".tmp*")
	if err != nil {
		t.Fatal(err)
	}
	tmp.Close()

	c := newResultCache(4, dir)
	c.put(key, storedN("swim"))
	c2 := newResultCache(4, dir)
	if _, tier, ok := c2.get(key); !ok || tier != TierDisk {
		t.Fatalf("round-trip after sweep: ok=%v tier=%q", ok, tier)
	}
	if st := c2.snapshot(); st.TmpSwept != 0 {
		t.Fatalf("second open swept %d files, want 0", st.TmpSwept)
	}
}

// FuzzResultCacheLoad feeds arbitrary bytes to the disk tier's decoder as
// a persisted <key>.json. Each input is stored under a fixed key and,
// when it decodes far enough to name a spec, under that spec's key too
// (the only way arbitrary bytes can be accepted). load must never panic,
// and anything it accepts must hash to the key it was stored under.
func FuzzResultCacheLoad(f *testing.F) {
	c := newResultCache(1, f.TempDir())
	for _, sr := range []StoredResult{storedN("swim"), {Spec: Spec{Workload: "shallow/affine/small/unit#1", Config: "base", Mechanism: "victim", Policy: "ehc", WayMemo: true}}} {
		b, err := json.Marshal(sr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte(`{"spec":{}}`))
	f.Add([]byte(`{"spec":null,"row":{"benchmark":7}}`))
	f.Add([]byte("garbage"))
	fixed := specN("fixed").Key()
	f.Fuzz(func(t *testing.T, data []byte) {
		keys := []string{fixed}
		var claimed struct {
			Spec Spec `json:"spec"`
		}
		if json.Unmarshal(data, &claimed) == nil {
			keys = append(keys, claimed.Spec.Key())
		}
		for _, key := range keys {
			if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
				t.Fatal(err)
			}
			sr, err := c.load(key)
			if err == nil && sr.Spec.Key() != key {
				t.Fatalf("load accepted a result whose spec %+v hashes to %s, stored under %s", sr.Spec, sr.Spec.Key(), key)
			}
			os.Remove(c.path(key))
		}
	})
}
