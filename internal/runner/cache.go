package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
)

// DefaultCacheDir is where the CLIs persist results relative to the working
// directory.
const DefaultCacheDir = ".ftcache"

// Cache is a content-addressed store for simulation results. Each entry is
// one gob file named by the SHA-256 of its canonical key; the key itself is
// stored in the file and verified on read, so a (vanishingly unlikely) hash
// collision degrades to a miss instead of returning a wrong result. Entries
// carry sim.Version inside the key, which is what makes a cached value safe
// to reuse across processes: any engine change re-keys the world.
//
// Writes are atomic (temp file + rename), so concurrent sweep workers and
// even concurrent processes sharing a directory are safe: the worst case is
// two workers computing the same entry and one rename winning.
type Cache struct {
	dir string
}

// NewCache opens (creating if needed) a cache rooted at dir.
func NewCache(dir string) (*Cache, error) {
	if dir == "" {
		dir = DefaultCacheDir
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: cache dir: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Path returns the file an entry for key lives at.
func (c *Cache) Path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:16])+".gob")
}

// entryFormat names the wire layout of entry values (2: the flat stats blobs
// of internal/stats/gob.go). Bump it when a codec changes shape but no result
// bit does (that is sim.Version's job): entries with another tag, 0 for those
// from before it, are misses that heal on read; no older reader is kept.
const entryFormat = 2

// entryHeader precedes the value in every cache file.
type entryHeader struct {
	// Key is the full canonical key, checked against the request on read.
	Key string
	// Format is the entryFormat the value was written with.
	Format int
}

// Get decodes the entry for key into out (a non-nil pointer) and reports
// whether it was found. Any unreadable, truncated, mismatched or
// other-format file is treated as a miss and removed, so a corrupt or stale
// cache heals itself instead of failing sweeps.
func (c *Cache) Get(key string, out any) bool {
	b, err := os.ReadFile(c.Path(key))
	if err != nil {
		return false
	}
	dec := gob.NewDecoder(bytes.NewReader(b))
	var hdr entryHeader
	if dec.Decode(&hdr) != nil || hdr.Key != key || hdr.Format != entryFormat || dec.Decode(out) != nil {
		c.discard(key)
		return false
	}
	return true
}

// discard best-effort removes a corrupt or colliding entry.
func (c *Cache) discard(key string) { _ = os.Remove(c.Path(key)) }

// Put stores v under key atomically.
func (c *Cache) Put(key string, v any) error {
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return err
	}
	enc := gob.NewEncoder(tmp)
	if err := enc.Encode(entryHeader{Key: key, Format: entryFormat}); err == nil {
		err = enc.Encode(v)
	}
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.Path(key))
}
