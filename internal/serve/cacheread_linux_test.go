//go:build linux

package serve

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"unsafe"

	"fasttrack/internal/runner"
)

// TestMissReadsCacheOnce: a daemon sim job whose result is not cached reads
// its cache entry once. The entry's file name is planted as a directory, so
// every read opens and closes it and misses without healing it away (the
// job's write-back then fails, which the cache tolerates), and inotify on
// the cache directory counts the opens.
func TestMissReadsCacheOnce(t *testing.T) {
	dir := t.TempDir()
	const spec = `{"kind":"sim","topology":{"noc":"hoplite","n":4},
		"workload":{"pattern":"RANDOM","rate":0.1,"packets":20,"seed":81}}`
	js := decodeSpec(t, spec)
	cfg, opts, err := js.SimConfig(js.Workload.Rate)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := runner.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	entry := cache.Path(runner.SyntheticKey(cfg, opts))
	if err := os.Mkdir(entry, 0o755); err != nil {
		t.Fatal(err)
	}

	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		t.Skipf("inotify unavailable: %v", err)
	}
	defer syscall.Close(fd)
	// Open and close alternate, so the kernel never merges two reads' events.
	if _, err := syscall.InotifyAddWatch(fd, dir, syscall.IN_OPEN|syscall.IN_CLOSE_NOWRITE); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if body := postAndWait(t, s, ts, spec); strings.Contains(body, `"cached":true`) {
		t.Fatalf("job answered from a planted directory: %s", body)
	}

	name := []byte(filepath.Base(entry))
	opens := 0
	buf := make([]byte, 1<<16)
	for {
		n, err := syscall.Read(fd, buf)
		if errors.Is(err, syscall.EAGAIN) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < n; {
			ev := (*syscall.InotifyEvent)(unsafe.Pointer(&buf[off]))
			off += syscall.SizeofInotifyEvent
			evName := bytes.TrimRight(buf[off:off+int(ev.Len)], "\x00")
			off += int(ev.Len)
			if ev.Mask&syscall.IN_OPEN != 0 && bytes.Equal(evName, name) {
				opens++
			}
		}
	}
	if opens != 1 {
		t.Fatalf("one daemon miss read its cache entry %d times, want 1", opens)
	}
}
