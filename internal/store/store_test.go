package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/simcache"
	"repro/internal/stats"
)

func testKey(workload string) simcache.RunKey {
	return simcache.RunKey{Model: 1, Workload: workload, ConfigFP: "fp-" + workload, Warmup: 1000, Insts: 20000}
}

func testStats(seed uint64) stats.Sim {
	return stats.Sim{Cycles: 100 + seed, ArchInsts: 200 + seed, UOps: 300 + seed, BranchLookups: 17 * seed}
}

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustPut(t *testing.T, s *Store, k simcache.RunKey, st stats.Sim) {
	t.Helper()
	if err := s.Put(k, st); err != nil {
		t.Fatal(err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir())
	k := testKey("a")
	if _, ok := s.Get(k); ok {
		t.Fatal("Get on empty store hit")
	}
	mustPut(t, s, k, testStats(1))
	got, ok := s.Get(k)
	if !ok || got != testStats(1) {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	c := s.Counters()
	if c.Puts != 1 || c.Hits != 1 || c.Misses != 1 || c.Quarantined != 0 {
		t.Fatalf("counters = %+v", c)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestPersistenceAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	mustPut(t, s1, testKey("a"), testStats(1))
	mustPut(t, s1, testKey("b"), testStats(2))

	s2 := open(t, dir)
	if s2.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", s2.Len())
	}
	if got, ok := s2.Get(testKey("a")); !ok || got != testStats(1) {
		t.Fatalf("reopened Get(a) = %+v, %v", got, ok)
	}
}

func TestCrossProcessSharing(t *testing.T) {
	// Two handles on one directory, as two daemon instances would hold:
	// a record written through one must be served by the other even
	// though it was absent when the second handle opened.
	dir := t.TempDir()
	s1 := open(t, dir)
	s2 := open(t, dir)
	mustPut(t, s1, testKey("a"), testStats(7))
	if got, ok := s2.Get(testKey("a")); !ok || got != testStats(7) {
		t.Fatalf("second handle Get = %+v, %v", got, ok)
	}
}

// corrupt rewrites the record file for k through fn.
func corrupt(t *testing.T, s *Store, k simcache.RunKey, fn func([]byte) []byte) {
	t.Helper()
	path := s.recordPath(k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// assertQuarantined checks that corrupting key a is detected and
// contained: Get(a) misses and quarantines, key b is untouched, and a
// can be rewritten and served again.
func assertQuarantined(t *testing.T, s *Store, a, b simcache.RunKey) {
	t.Helper()
	if _, ok := s.Get(a); ok {
		t.Fatal("corrupted record served")
	}
	c := s.Counters()
	if c.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", c.Quarantined)
	}
	ents, err := os.ReadDir(filepath.Join(s.Dir(), quarantineDir))
	if err != nil {
		t.Fatal(err)
	}
	var quarantinedFiles int
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".reason") {
			quarantinedFiles++
		}
	}
	if quarantinedFiles != 1 {
		t.Fatalf("%d files in quarantine, want 1", quarantinedFiles)
	}
	// Other keys are unaffected.
	if got, ok := s.Get(b); !ok || got != testStats(2) {
		t.Fatalf("unrelated key damaged: %+v, %v", got, ok)
	}
	// The key recovers on rewrite.
	mustPut(t, s, a, testStats(1))
	if got, ok := s.Get(a); !ok || got != testStats(1) {
		t.Fatalf("rewritten key = %+v, %v", got, ok)
	}
}

func TestTruncatedRecordQuarantined(t *testing.T) {
	s := open(t, t.TempDir())
	a, b := testKey("a"), testKey("b")
	mustPut(t, s, a, testStats(1))
	mustPut(t, s, b, testStats(2))
	corrupt(t, s, a, func(d []byte) []byte { return d[:len(d)/2] })
	assertQuarantined(t, s, a, b)
}

func TestBitFlippedChecksumQuarantined(t *testing.T) {
	s := open(t, t.TempDir())
	a, b := testKey("a"), testKey("b")
	mustPut(t, s, a, testStats(1))
	mustPut(t, s, b, testStats(2))
	corrupt(t, s, a, func(d []byte) []byte {
		// Flip one digit inside the payload block: the JSON stays
		// well-formed, so only the checksum can catch it.
		i := bytes.Index(d, []byte(`"payload"`))
		if i < 0 {
			t.Fatal("no payload block")
		}
		for j := i; j < len(d); j++ {
			if d[j] >= '0' && d[j] <= '9' {
				d[j] = '0' + ('9' - d[j]) // never maps a digit to itself
				return d
			}
		}
		t.Fatal("no digit to flip")
		return d
	})
	assertQuarantined(t, s, a, b)
}

func TestWrongSchemaQuarantined(t *testing.T) {
	s := open(t, t.TempDir())
	a, b := testKey("a"), testKey("b")
	mustPut(t, s, a, testStats(1))
	mustPut(t, s, b, testStats(2))
	corrupt(t, s, a, func(d []byte) []byte {
		return bytes.Replace(d, []byte(Schema), []byte("tvp.store/v999"), 1)
	})
	assertQuarantined(t, s, a, b)
}

// TestV1RecordQuarantinedAtOpen: a record in the tvp.store/v1 envelope,
// whose key carried fast_warmup and no model version, is quarantined at
// Open for its schema and never served, even with a valid checksum.
func TestV1RecordQuarantinedAtOpen(t *testing.T) {
	dir := t.TempDir()
	k := testKey("a")
	payload, err := json.Marshal(testStats(1))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	v1 := fmt.Sprintf(`{"schema":"tvp.store/v1","key":{"workload":%q,"config_fp":%q,"warmup":%d,"insts":%d,"fast_warmup":false},"checksum":"%x","payload":%s}`+"\n",
		k.Workload, k.ConfigFP, k.Warmup, k.Insts, sum, payload)
	// The v1 record name: SHA-256 over the NUL-separated key fields.
	h := sha256.Sum256([]byte(fmt.Sprintf("%s\x00%s\x00%d\x00%d\x00%t", k.Workload, k.ConfigFP, k.Warmup, k.Insts, false)))
	name := hex.EncodeToString(h[:]) + ".json"
	if err := os.MkdirAll(filepath.Join(dir, recordsDir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, recordsDir, name), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}

	s := open(t, dir)
	if c := s.Counters(); c.Quarantined != 1 || s.Len() != 0 {
		t.Fatalf("after Open: %+v, Len %d; want the v1 record quarantined", c, s.Len())
	}
	reason, err := os.ReadFile(filepath.Join(dir, quarantineDir, name+".reason"))
	if err != nil || !strings.Contains(string(reason), `schema "tvp.store/v1"`) {
		t.Fatalf("quarantine reason %q (%v), want the v1 schema named", reason, err)
	}
	if _, ok := s.Get(k); ok {
		t.Fatal("Get served a point the v1 store held")
	}
}

// TestOtherModelVersionMisses: a result stored under another timing-model
// version is a plain miss for the current key, not a corrupt record.
func TestOtherModelVersionMisses(t *testing.T) {
	s := open(t, t.TempDir())
	k := testKey("a")
	old := k
	old.Model++
	mustPut(t, s, old, testStats(1))
	if _, ok := s.Get(k); ok {
		t.Fatal("a record of another model version served for the current key")
	}
	if got, ok := s.Get(old); !ok || got != testStats(1) {
		t.Fatalf("Get(old) = %+v, %v", got, ok)
	}
	if c := s.Counters(); c.Quarantined != 0 || c.Misses != 1 || c.Hits != 1 {
		t.Fatalf("counters = %+v, want one miss, one hit, nothing quarantined", c)
	}
}

func TestStaleIndexEntryEvicted(t *testing.T) {
	s := open(t, t.TempDir())
	a := testKey("a")
	mustPut(t, s, a, testStats(1))
	// Another process garbage-collects the file out from under the index.
	if err := os.Remove(s.recordPath(a)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(a); ok {
		t.Fatal("served a removed record")
	}
	c := s.Counters()
	if c.StaleEvictions != 1 {
		t.Fatalf("stale evictions = %d, want 1", c.StaleEvictions)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after eviction", s.Len())
	}
	// Recomputing and re-putting restores service.
	mustPut(t, s, a, testStats(1))
	if _, ok := s.Get(a); !ok {
		t.Fatal("re-put key missing")
	}
}

func TestCrashedTempFileSweptAtOpen(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	a := testKey("a")
	mustPut(t, s1, a, testStats(1))
	// Simulate a writer that died between write and rename.
	partial := filepath.Join(dir, recordsDir, fileName(testKey("b"))+tmpMarker+"12345")
	if err := os.WriteFile(partial, []byte(`{"schema":"tvp.store/v1","key":{`), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir)
	if _, err := os.Stat(partial); !os.IsNotExist(err) {
		t.Fatal("partial temp file survived Open")
	}
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (the good record)", s2.Len())
	}
	if got, ok := s2.Get(a); !ok || got != testStats(1) {
		t.Fatalf("good record lost: %+v, %v", got, ok)
	}
	if c := s2.Counters(); c.Quarantined != 0 {
		t.Fatalf("temp sweep must not count as quarantine: %+v", c)
	}
}

func TestCorruptRecordQuarantinedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s1 := open(t, dir)
	a, b := testKey("a"), testKey("b")
	mustPut(t, s1, a, testStats(1))
	mustPut(t, s1, b, testStats(2))
	corrupt(t, s1, a, func(d []byte) []byte { return d[:16] })

	// A restarted daemon must come up serving the surviving entries.
	s2 := open(t, dir)
	if c := s2.Counters(); c.Quarantined != 1 {
		t.Fatalf("open-time quarantine = %d, want 1", c.Quarantined)
	}
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want the 1 survivor", s2.Len())
	}
	if got, ok := s2.Get(b); !ok || got != testStats(2) {
		t.Fatalf("survivor = %+v, %v", got, ok)
	}
	if _, ok := s2.Get(a); ok {
		t.Fatal("corrupt record served after reopen")
	}
}

func TestRenamedRecordRejected(t *testing.T) {
	// A record copied under the wrong name (hash != embedded key) must
	// never be served for the name's key.
	s := open(t, t.TempDir())
	a, b := testKey("a"), testKey("b")
	mustPut(t, s, a, testStats(1))
	data, err := os.ReadFile(s.recordPath(a))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.recordPath(b), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(b); ok {
		t.Fatal("record with mismatched embedded key served")
	}
	if c := s.Counters(); c.Quarantined != 1 {
		t.Fatalf("quarantined = %d, want 1", c.Quarantined)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := open(t, t.TempDir())
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			k := testKey(string(rune('a' + g%4)))
			want := testStats(uint64(g%4) + 1)
			for i := 0; i < 50; i++ {
				if err := s.Put(k, want); err != nil {
					t.Error(err)
					return
				}
				if got, ok := s.Get(k); ok && got != want {
					t.Errorf("Get = %+v, want %+v", got, want)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
