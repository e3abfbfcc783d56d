// Package store is the persistent half of the two-tier simulation result
// store behind the tvpd daemon (internal/serve): an on-disk map from
// simcache.RunKey to a run's stats.Sim counter block, surviving process
// restarts and shared between every process pointed at the same
// directory. The design leans on the content-addressed nature of the
// keys — a simulation point's result is a pure function of its RunKey,
// which names the timing-model version, so records never need
// invalidation or coordination between writers (two processes racing to
// write the same key write identical payloads).
//
// Durability discipline:
//
//   - one record file per key, named by the SHA-256 of the key's JSON
//     encoding, written write-temp-then-rename so a crash never leaves a
//     partial record under a record name;
//   - every record embeds its full key and a SHA-256 checksum of the
//     payload; Get verifies both, so a hash-colliding, renamed, bit-rotted
//     or truncated file can never serve a wrong result;
//   - corruption is quarantined, not fatal: a bad record is moved aside
//     into quarantine/ and reported as a miss, leaving every other key
//     intact;
//   - leftover temp files from crashed writers are swept at Open.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/simcache"
	"repro/internal/stats"
)

// Schema versions the on-disk record envelope. A record under another
// schema is quarantined at Open and recomputed.
const Schema = "tvp.store/v2"

const (
	recordsDir    = "records"
	quarantineDir = "quarantine"
	tmpMarker     = ".tmp"
)

// envelope is the on-disk record format. Payload stays a raw message so
// the recorded checksum covers the exact stored bytes, independent of
// map ordering or encoder drift.
type envelope struct {
	Schema   string          `json:"schema"`
	Key      simcache.RunKey `json:"key"`
	Checksum string          `json:"checksum"`
	Payload  json.RawMessage `json:"payload"`
}

// Counters is a snapshot of the store's cumulative activity, surfaced by
// the daemon's /v1/status endpoint and asserted by the persistence and
// fault-injection tests.
type Counters struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Puts        uint64 `json:"puts"`
	Quarantined uint64 `json:"quarantined"`
	// StaleEvictions counts index entries whose record file vanished or
	// went bad after it was indexed (another process moved or corrupted
	// it) — evicted on discovery, never fatal.
	StaleEvictions uint64 `json:"stale_evictions"`
}

// Store is one handle on a store directory. Handles are safe for
// concurrent use; multiple processes may share one directory (Get always
// probes the disk, so records written by another process after Open are
// found).
type Store struct {
	dir string

	mu    sync.Mutex
	index map[simcache.RunKey]struct{}

	hits        atomic.Uint64
	misses      atomic.Uint64
	puts        atomic.Uint64
	quarantined atomic.Uint64
	stale       atomic.Uint64
}

// Open prepares dir as a result store, creating it if needed. Leftover
// temp files from crashed writers are removed, and every existing record
// is verified (schema, embedded key, name, checksum): good records seed
// the index, bad ones are quarantined on the spot so a damaged store
// never poisons later Gets.
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir, index: make(map[simcache.RunKey]struct{})}
	for _, d := range []string{dir, filepath.Join(dir, recordsDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, recordsDir))
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		path := filepath.Join(dir, recordsDir, name)
		if strings.Contains(name, tmpMarker) {
			// A writer crashed between temp write and rename; the record
			// name was never linked, so removal cannot lose data.
			os.Remove(path)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		key, _, err := decodeRecord(name, data)
		if err != nil {
			s.quarantine(path, err)
			continue
		}
		s.index[key] = struct{}{}
	}
	return s, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of indexed records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Counters returns a snapshot of the cumulative activity counters.
func (s *Store) Counters() Counters {
	return Counters{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Puts:           s.puts.Load(),
		Quarantined:    s.quarantined.Load(),
		StaleEvictions: s.stale.Load(),
	}
}

// fileName returns the record file name for a key: the SHA-256 of the
// key's JSON encoding, the same bytes the envelope embeds.
func fileName(k simcache.RunKey) string {
	b, _ := json.Marshal(k) // strings and integers always encode
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]) + ".json"
}

func (s *Store) recordPath(k simcache.RunKey) string {
	return filepath.Join(s.dir, recordsDir, fileName(k))
}

// Get returns the stored result for k. It reads the disk directly (the
// caller's in-memory tier absorbs repeats), verifying the envelope
// schema, the embedded key, the record name and the payload checksum; a
// record failing any check is quarantined and reported as a miss.
func (s *Store) Get(k simcache.RunKey) (stats.Sim, bool) {
	path := s.recordPath(k)
	data, err := os.ReadFile(path)
	if err != nil {
		s.evictStale(k)
		s.misses.Add(1)
		return stats.Sim{}, false
	}
	key, st, err := decodeRecord(fileName(k), data)
	if err != nil || key != k {
		if err == nil {
			err = fmt.Errorf("store: record %s holds key %+v, not the requested %+v", fileName(k), key, k)
		}
		s.quarantine(path, err)
		s.evictStale(k)
		s.misses.Add(1)
		return stats.Sim{}, false
	}
	s.mu.Lock()
	s.index[k] = struct{}{}
	s.mu.Unlock()
	s.hits.Add(1)
	return st, true
}

// Put durably stores the result for k: marshal, checksum, write to a
// temp file in the records directory, fsync, then atomically rename into
// the record name. Concurrent writers of the same key are harmless — the
// payload is a pure function of the key, so whichever rename lands last
// installs identical content.
func (s *Store) Put(k simcache.RunKey, st stats.Sim) error {
	payload, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	sum := sha256.Sum256(payload)
	env := envelope{
		Schema:   Schema,
		Key:      k,
		Checksum: hex.EncodeToString(sum[:]),
		Payload:  payload,
	}
	// The envelope must be written compact: an indenting encoder would
	// reformat the embedded raw payload, and the checksum covers the
	// payload bytes exactly as they appear in the file.
	data, err := json.Marshal(env)
	if err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	data = append(data, '\n')

	final := s.recordPath(k)
	tmp, err := os.CreateTemp(filepath.Dir(final), fileName(k)+tmpMarker+"*")
	if err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: put: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return fmt.Errorf("store: put: %w", err)
	}
	s.mu.Lock()
	s.index[k] = struct{}{}
	s.mu.Unlock()
	s.puts.Add(1)
	return nil
}

// decodeRecord verifies and unpacks one record file: envelope schema,
// record name matching the embedded key, and payload checksum.
func decodeRecord(name string, data []byte) (simcache.RunKey, stats.Sim, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return simcache.RunKey{}, stats.Sim{}, fmt.Errorf("store: record %s: %w", name, err)
	}
	if env.Schema != Schema {
		return simcache.RunKey{}, stats.Sim{}, fmt.Errorf("store: record %s: schema %q (want %s)", name, env.Schema, Schema)
	}
	if want := fileName(env.Key); want != name {
		return simcache.RunKey{}, stats.Sim{}, fmt.Errorf("store: record %s embeds a key hashing to %s", name, want)
	}
	sum := sha256.Sum256(env.Payload)
	if got := hex.EncodeToString(sum[:]); got != env.Checksum {
		return simcache.RunKey{}, stats.Sim{}, fmt.Errorf("store: record %s: payload checksum %s, recorded %s", name, got, env.Checksum)
	}
	var st stats.Sim
	if err := json.Unmarshal(env.Payload, &st); err != nil {
		return simcache.RunKey{}, stats.Sim{}, fmt.Errorf("store: record %s payload: %w", name, err)
	}
	return env.Key, st, nil
}

// quarantine moves a bad record aside (best effort — removal if the move
// fails) so it can be inspected without ever being served again.
func (s *Store) quarantine(path string, reason error) {
	dst := filepath.Join(s.dir, quarantineDir, filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	} else {
		// Leave a note naming the failed check next to the quarantined
		// record; diagnostics only, failures ignored.
		os.WriteFile(dst+".reason", []byte(reason.Error()+"\n"), 0o644)
	}
	s.quarantined.Add(1)
}

// evictStale drops k from the index if present, counting the eviction —
// the record the index promised is no longer usable on disk.
func (s *Store) evictStale(k simcache.RunKey) {
	s.mu.Lock()
	_, had := s.index[k]
	if had {
		delete(s.index, k)
	}
	s.mu.Unlock()
	if had {
		s.stale.Add(1)
	}
}
