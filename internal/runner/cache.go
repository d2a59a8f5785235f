package runner

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
)

// DefaultCacheDir is where the CLIs persist results relative to the working
// directory.
const DefaultCacheDir = ".ftcache"

// Cache is a content-addressed store for simulation results. Each entry is
// one file named by the SHA-256 of its canonical key, holding a flat binary
// record (codec.go) behind a header that repeats the key, so a (vanishingly
// unlikely) hash collision degrades to a miss instead of returning a wrong
// result. Entries carry sim.Version inside the key, which is what makes a
// cached value safe to reuse across processes: any engine change re-keys the
// world.
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

// Path returns the file an entry for key lives at. The ".gob" suffix is
// historical: entries stopped being gob streams at entryFormat 3, and the
// names were kept so each older file is read once, found stale and removed.
func (c *Cache) Path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(c.dir, hex.EncodeToString(sum[:16])+".gob")
}

// entryFormat names the wire layout of entries (3: codec.go's flat record,
// with internal/stats/wire.go's blobs). Bump it when a codec changes shape but
// no result bit does (that is sim.Version's job): entries with another tag,
// among them the gob streams of formats 0-2, are misses that heal on read.
const entryFormat = 3

// Get decodes the entry for key into out (a non-nil pointer) and reports
// whether it was found. Any unreadable, truncated, mismatched, other-format
// or other-shape file is treated as a miss and removed, so a corrupt or stale
// cache heals itself instead of failing sweeps; out is then zeroed.
func (c *Cache) Get(key string, out any) bool {
	path := c.Path(key)
	b, err := os.ReadFile(path)
	v := reflect.ValueOf(out)
	if err != nil || v.Kind() != reflect.Pointer || v.IsNil() {
		return false
	}
	if err := decodeEntry(b, key, v.Elem()); err != nil {
		v.Elem().SetZero()
		_ = os.Remove(path) // best effort
		return false
	}
	return true
}

// decodeEntry reads an entry into v: the key, entryFormat and the value
// type's shape fingerprint, then the value's record, and nothing else.
func decodeEntry(b []byte, key string, v reflect.Value) error {
	s, err := shapeOf(v.Type())
	if err != nil {
		return err
	}
	r := &record{b: b}
	if r.check(string(r.next(r.uvarint())) == key && r.uvarint() == entryFormat && r.uvarint() == s.fp) {
		s.decode(r, v)
	}
	r.check(len(r.b) == 0)
	return r.err
}

func encodeEntry(key string, v any) ([]byte, error) {
	t := reflect.TypeOf(v)
	if t == nil {
		return nil, errors.New("runner: cache Put of nil")
	}
	s, err := shapeOf(t)
	if err != nil {
		return nil, err
	}
	val := reflect.New(t).Elem() // addressable, for self-coded pointer methods
	val.Set(reflect.ValueOf(v))
	w := &record{b: append(binary.AppendUvarint(make([]byte, 0, 256+s.min), uint64(len(key))), key...)}
	w.put(entryFormat)
	w.put(s.fp)
	s.encode(w, val)
	return w.b, w.err
}

// Put stores v under key atomically; a value the codec refuses writes nothing.
func (c *Cache) Put(key string, v any) error {
	b, err := encodeEntry(key, v)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return err
	}
	_, err = tmp.Write(b)
	if err = errors.Join(err, tmp.Close()); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), c.Path(key))
}
