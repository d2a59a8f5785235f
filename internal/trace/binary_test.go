package trace

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"fasttrack/internal/xrand"
)

// TestFingerprintMatchesStdlibFNV pins the hand-rolled FNV-64a word helpers
// against hash/fnv over the identical byte stream.
func TestFingerprintMatchesStdlibFNV(t *testing.T) {
	tr := tinyTrace()
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	io.WriteString(h, tr.Name)
	word(uint64(tr.PEs))
	for _, e := range tr.Events {
		word(uint64(e.Src))
		word(uint64(e.Dst))
		word(uint64(e.Delay))
		word(uint64(len(e.Deps)))
		for _, d := range e.Deps {
			word(uint64(d))
		}
	}
	word(uint64(len(tr.Events)))
	if got, want := tr.Fingerprint(), h.Sum64(); got != want {
		t.Fatalf("hand-rolled fingerprint %016x, stdlib fnv %016x", got, want)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", tr, got)
	}
	if got.Fingerprint() != tr.Fingerprint() {
		t.Fatal("fingerprint changed across round trip")
	}
}

// TestBinaryRoundTripProperty fuzzes random DAG traces through
// EncodeBinary/ReadBinary and through the text format, asserting all three
// representations agree.
func TestBinaryRoundTripProperty(t *testing.T) {
	rng := xrand.New(7)
	for iter := 0; iter < 80; iter++ {
		pes := 1 + rng.Intn(9)
		b := NewBuilder("fuzz/bin", pes)
		n := rng.Intn(60)
		for i := 0; i < n; i++ {
			var deps []int32
			for d := 0; d < i && len(deps) < 4; d++ {
				if rng.Bool(0.15) {
					deps = append(deps, int32(d))
				}
			}
			b.Add(rng.Intn(pes), rng.Intn(pes), int32(rng.Intn(9)), deps...)
		}
		tr, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		var bin, txt bytes.Buffer
		if err := EncodeBinary(&bin, tr); err != nil {
			t.Fatal(err)
		}
		if err := WriteText(&txt, tr); err != nil {
			t.Fatal(err)
		}
		fromBin, err := ReadBinary(bytes.NewReader(bin.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		fromTxt, err := Read(&txt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(tr, fromBin) {
			t.Fatalf("iter %d: binary round trip mismatch", iter)
		}
		if fromTxt.Fingerprint() != fromBin.Fingerprint() {
			t.Fatalf("iter %d: text fp %016x != binary fp %016x", iter, fromTxt.Fingerprint(), fromBin.Fingerprint())
		}
	}
}

// TestWriterMatchesEncodeBinary: the streaming Writer (count and fingerprint
// unknown until Close, backpatched) must produce a byte-identical file to
// EncodeBinary, and its header fingerprint must equal the in-memory
// Trace.Fingerprint — that equality is what makes runner cache keys match
// between recorded and freshly-generated traces.
func TestWriterMatchesEncodeBinary(t *testing.T) {
	tr := tinyTrace()
	path := filepath.Join(t.TempDir(), "w.ftt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(f, tr.Name, tr.PEs)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range tr.Events {
		w.Add(e.Src, e.Dst, e.Delay, e.Deps...)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	streamed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := EncodeBinary(&direct, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, direct.Bytes()) {
		t.Fatal("streaming Writer and EncodeBinary produced different bytes")
	}
	if w.Header().Fingerprint != tr.Fingerprint() {
		t.Fatalf("writer fingerprint %016x != in-memory %016x", w.Header().Fingerprint, tr.Fingerprint())
	}
	if w.Header().Events != int64(len(tr.Events)) {
		t.Fatalf("writer count %d != %d", w.Header().Events, len(tr.Events))
	}
}

func TestWriterRejectsInvalid(t *testing.T) {
	var sink seekBuffer
	if _, err := NewWriter(&sink, "has space", 4); err == nil {
		t.Error("whitespace name should be rejected")
	}
	if _, err := NewWriter(&sink, "", 4); err == nil {
		t.Error("empty name should be rejected")
	}
	if _, err := NewWriter(&sink, "x", 0); err == nil {
		t.Error("zero PEs should be rejected")
	}
	w, err := NewWriter(&sink, "x", 4)
	if err != nil {
		t.Fatal(err)
	}
	w.Add(0, 9, 0) // endpoint out of range
	if err := w.Close(); err == nil {
		t.Error("out-of-range endpoint should fail Close")
	}
	sink = seekBuffer{}
	w, err = NewWriter(&sink, "x", 4)
	if err != nil {
		t.Fatal(err)
	}
	w.Add(0, 1, 0, 0) // forward/self dependency
	if err := w.Close(); err == nil {
		t.Error("forward dependency should fail Close")
	}
}

// seekBuffer is an in-memory io.WriteSeeker for Writer tests.
type seekBuffer struct {
	b   []byte
	off int64
}

func (s *seekBuffer) Write(p []byte) (int, error) {
	if need := s.off + int64(len(p)); need > int64(len(s.b)) {
		s.b = append(s.b, make([]byte, need-int64(len(s.b)))...)
	}
	copy(s.b[s.off:], p)
	s.off += int64(len(p))
	return len(p), nil
}

func (s *seekBuffer) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		s.off = off
	case io.SeekCurrent:
		s.off += off
	case io.SeekEnd:
		s.off = int64(len(s.b)) + off
	}
	return s.off, nil
}

func TestReaderRejectsHostileInput(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        append([]byte("NOPE"), good[4:]...),
		"truncated header": good[:10],
		"truncated events": good[:len(good)-3],
		"trailing data":    append(append([]byte{}, good...), 0x01),
	}
	// Corrupt one event byte: fingerprint check must catch it even when the
	// varints still decode in-range.
	flip := append([]byte{}, good...)
	flip[len(flip)-1] ^= 0x01
	cases["bit flip"] = flip
	// Zeroed PE count.
	zpe := append([]byte{}, good...)
	for i := 20; i < 24; i++ {
		zpe[i] = 0
	}
	cases["zero PEs"] = zpe

	for name, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: ReadBinary should fail", name)
		}
	}
}

func TestReaderHeaderWithoutScan(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	// Hand NewReader only the header bytes plus one event: Header must be
	// complete and correct without the reader ever seeing the full stream.
	rd, err := NewReader(bytes.NewReader(buf.Bytes()[:fttHeaderLen+len(tr.Name)+2]))
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Header()
	if rd.Header() != want {
		t.Fatalf("header %+v, want %+v", rd.Header(), want)
	}
}

func TestReaderReiteration(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if err := EncodeBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	// bytes.Reader is an io.ReaderAt: many cursors allowed.
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		cur, err := rd.Open()
		if err != nil {
			t.Fatal(err)
		}
		var e Event
		n := 0
		for {
			ok, err := cur.Next(&e)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			n++
		}
		if n != len(tr.Events) {
			t.Fatalf("round %d: %d events, want %d", round, n, len(tr.Events))
		}
	}
	// A pure stream (no ReaderAt) is one-shot.
	oneShot, err := NewReader(io.MultiReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oneShot.Open(); err != nil {
		t.Fatal(err)
	}
	if _, err := oneShot.Open(); err == nil {
		t.Fatal("second Open on a one-shot stream should fail")
	}
}

// FuzzReadBinary: the decoder must never panic and never return a trace
// that fails Validate, no matter the input bytes.
func FuzzReadBinary(f *testing.F) {
	tr := tinyTrace()
	var buf bytes.Buffer
	EncodeBinary(&buf, tr)
	f.Add(buf.Bytes())
	f.Add([]byte(fttMagic))
	f.Add([]byte{})
	long := append([]byte{}, buf.Bytes()...)
	long[4] = 0xff // inflate declared count
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("decoded trace fails Validate: %v", verr)
		}
		// A successfully decoded trace must re-encode to an equal trace
		// (canonical round trip).
		var out bytes.Buffer
		if err := EncodeBinary(&out, got); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := ReadBinary(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatal("re-encoded trace differs")
		}
	})
}
