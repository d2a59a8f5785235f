package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestConvertRoundTrip: text → binary → text through the streaming
// converters must reproduce the original bytes, and every representation
// must carry the same fingerprint.
func TestConvertRoundTrip(t *testing.T) {
	tr := tinyTrace()
	dir := t.TempDir()
	txtPath := filepath.Join(dir, "t.trace")
	binPath := filepath.Join(dir, "t.ftt")

	var txt bytes.Buffer
	if err := WriteText(&txt, tr); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(txtPath, txt.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Record: sniffed text source → FTT1.
	src, closer, err := OpenFile(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*Trace); !ok {
		t.Fatalf("text file sniffed as %T", src)
	}
	f, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := EncodeBinaryFrom(f, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	closer.Close()
	if hdr.Fingerprint != tr.Fingerprint() {
		t.Fatalf("recorded fingerprint %016x != %016x", hdr.Fingerprint, tr.Fingerprint())
	}

	// Replay side: sniffed binary source → streaming reader, text decode
	// reproduces the original file byte for byte.
	src2, closer2, err := OpenFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	defer closer2.Close()
	rd, ok := src2.(*Reader)
	if !ok {
		t.Fatalf("binary file sniffed as %T", src2)
	}
	if rd.Header() != tr.Header() {
		t.Fatalf("header %+v != %+v", rd.Header(), tr.Header())
	}
	var back bytes.Buffer
	if err := WriteText(&back, rd); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), txt.Bytes()) {
		t.Fatalf("decode mismatch:\n%q\n%q", back.String(), txt.String())
	}
}

// TestOpenFileRejectsGarbage: a file that is neither FTT1 nor a text trace
// must fail, not come back as an empty trace.
func TestOpenFileRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("not a trace at all\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenFile(path); err == nil {
		t.Fatal("garbage file should fail to open")
	}
}

// TestEncodeBinaryFromEqualsEncodeBinary pins the two record paths to the
// same bytes.
func TestEncodeBinaryFromEqualsEncodeBinary(t *testing.T) {
	tr := tinyTrace()
	var direct bytes.Buffer
	if err := EncodeBinary(&direct, tr); err != nil {
		t.Fatal(err)
	}
	var sink seekBuffer
	if _, err := EncodeBinaryFrom(&sink, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), sink.b) {
		t.Fatal("EncodeBinaryFrom differs from EncodeBinary")
	}
	got, err := ReadBinary(bytes.NewReader(sink.b))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("round trip mismatch")
	}
}
