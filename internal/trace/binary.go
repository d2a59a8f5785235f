package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

// FTT1 is the compact binary trace format ("FastTrack Trace, version 1").
//
// Header (little-endian, fixed offsets so a streaming Writer can backpatch
// the two fields it cannot know until the last event):
//
//	[0:4)   magic "FTT1"
//	[4:12)  uint64 event count
//	[12:20) uint64 content fingerprint (Trace.Fingerprint algorithm)
//	[20:24) uint32 PE count
//	[24:26) uint16 name length
//	[26:..) name bytes (UTF-8, no whitespace — see CheckName)
//
// Events follow as unsigned varints, one record per event i:
//
//	src dst delay ndeps depDelta*
//
// where each depDelta is i-dep (always ≥ 1 because the trace is a DAG in
// topological order). Deltas, not absolute indices: dependencies point at
// recent events in every generator this repo has (barriers one round back,
// tokens one column back), so deltas stay in the 1–2 varint-byte range while
// absolute indices would grow with the trace. A typical event is 5–8 bytes
// against ~50 in memory.
const (
	fttMagic       = "FTT1"
	fttHeaderLen   = 26
	fttCountOff    = 4
	fttMaxName     = math.MaxUint16
	fttMaxPEs      = 1 << 26 // 8192×8192 torus; rejects garbage headers early
	fttMaxEvents   = math.MaxInt32 - 1
	fttDepPrealloc = 64 // decoder dep-buffer seed; grows to the real fan-in
)

// checkHeader rejects a trace identity the FTT1 header cannot carry.
func checkHeader(name string, pes int) error {
	if err := CheckName(name); err != nil {
		return err
	}
	if len(name) > fttMaxName {
		return fmt.Errorf("trace: name %d bytes long (max %d)", len(name), fttMaxName)
	}
	if pes <= 0 || pes > fttMaxPEs {
		return fmt.Errorf("trace: PE count %d out of range [1,%d]", pes, fttMaxPEs)
	}
	return nil
}

// appendHeader appends the FTT1 header of a pes-PE trace named name with the
// given event count and fingerprint (the Writer appends zeros and backpatches
// both at fttCountOff on Close).
func appendHeader(b []byte, name string, pes int, events int64, fp uint64) []byte {
	b = append(b, fttMagic...)
	b = binary.LittleEndian.AppendUint64(b, uint64(events))
	b = binary.LittleEndian.AppendUint64(b, fp)
	b = binary.LittleEndian.AppendUint32(b, uint32(pes))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
	return append(b, name...)
}

// appendEvent appends the FTT1 record of event i.
func appendEvent(b []byte, i int64, src, dst int, delay int32, deps []int32) []byte {
	b = binary.AppendUvarint(b, uint64(src))
	b = binary.AppendUvarint(b, uint64(dst))
	b = binary.AppendUvarint(b, uint64(delay))
	b = binary.AppendUvarint(b, uint64(len(deps)))
	for _, d := range deps {
		b = binary.AppendUvarint(b, uint64(i)-uint64(d))
	}
	return b
}

// Writer streams events into an FTT1 file. It implements Adder, so the
// internal/workloads generators emit into it exactly as they emit into a
// Builder — but with O(1) memory: events are varint-encoded into a buffered
// chunk as they arrive, the fingerprint is folded incrementally, and Close
// backpatches the count and fingerprint into the fixed-offset header. The
// destination must support Seek for that final patch (os.File does).
//
// Validation failures (endpoint out of range, forward dependency) make the
// Writer sticky-fail: subsequent Adds are no-ops and Close reports the first
// error, mirroring how Builder defers validation to Build.
type Writer struct {
	ws     io.WriteSeeker
	bw     *bufio.Writer
	pes    int
	n      int64
	fp     uint64
	err    error
	closed bool
	hdr    Header
	buf    []byte // per-event encode scratch, reused (grows to the max fan-in)
}

// NewWriter begins an FTT1 stream for a pes-PE trace named name. The header
// is written immediately with zeroed count/fingerprint; Close patches them.
func NewWriter(ws io.WriteSeeker, name string, pes int) (*Writer, error) {
	if err := checkHeader(name, pes); err != nil {
		return nil, err
	}
	w := &Writer{
		ws:  ws,
		bw:  bufio.NewWriterSize(ws, 1<<16),
		pes: pes,
		fp:  fpSeed(name, pes),
		hdr: Header{Name: name, PEs: pes},
	}
	if _, err := w.bw.Write(appendHeader(nil, name, pes, 0, 0)); err != nil {
		return nil, err
	}
	return w, nil
}

// Add implements Adder: append one event to the stream.
func (w *Writer) Add(src, dst int, delay int32, deps ...int32) int32 {
	id := int32(w.n)
	if w.err != nil || w.closed {
		return id
	}
	if w.n >= fttMaxEvents {
		w.fail(fmt.Errorf("trace: writer overflows %d events", int64(fttMaxEvents)))
	} else if err := checkEvent(w.pes, w.n, src, dst, delay, deps); err != nil {
		w.fail(fmt.Errorf("trace: %w", err))
	}
	if w.err != nil {
		return id
	}
	b := appendEvent(w.buf[:0], w.n, src, dst, delay, deps)
	h := w.fp
	h = fpWord(h, uint64(src))
	h = fpWord(h, uint64(dst))
	h = fpWord(h, uint64(delay))
	h = fpWord(h, uint64(len(deps)))
	for _, d := range deps {
		h = fpWord(h, uint64(d))
	}
	w.buf = b[:0]
	if _, err := w.bw.Write(b); err != nil {
		w.fail(err)
		return id
	}
	w.fp = h
	w.n++
	return id
}

// Grow implements Adder; a Writer holds no events, so it reserves nothing.
func (w *Writer) Grow(events, deps int) {}

// Len implements Adder.
func (w *Writer) Len() int { return int(w.n) }

// PEs returns the writer's PE count (generators assert geometry with it).
func (w *Writer) PEs() int { return w.pes }

// Err returns the first validation or I/O error, if any.
func (w *Writer) Err() error { return w.err }

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Close flushes the event stream and backpatches the header with the final
// event count and fingerprint. The Writer is unusable afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		w.fail(err)
		return err
	}
	w.hdr.Events = w.n
	w.hdr.Fingerprint = fpFinish(w.fp, w.n)
	var patch [16]byte
	binary.LittleEndian.PutUint64(patch[0:8], uint64(w.n))
	binary.LittleEndian.PutUint64(patch[8:16], w.hdr.Fingerprint)
	if _, err := w.ws.Seek(fttCountOff, io.SeekStart); err != nil {
		w.fail(err)
		return err
	}
	if _, err := w.ws.Write(patch[:]); err != nil {
		w.fail(err)
		return err
	}
	if _, err := w.ws.Seek(0, io.SeekEnd); err != nil {
		w.fail(err)
		return err
	}
	return nil
}

// Header returns the finalized trace identity. Valid only after Close.
func (w *Writer) Header() Header { return w.hdr }

// Reader is a Source over an FTT1 stream. NewReader parses and validates the
// header eagerly — identity (and therefore runner cache keys) costs a few
// dozen bytes of input, never an event scan. Events decode lazily through
// cursors in constant memory: a cursor holds one bufio chunk and one
// dependency buffer regardless of trace length.
//
// When the underlying reader is an io.ReaderAt (os.File, bytes.Reader), Open
// may be called any number of times, concurrently — each cursor reads its
// own section. Otherwise the Reader is one-shot: the single cursor consumes
// the stream and a second Open fails.
type Reader struct {
	hdr     Header
	ra      io.ReaderAt
	dataOff int64
	once    io.Reader // one-shot remainder when ra == nil
	opened  bool
	closer  io.Closer
}

// Open opens path as an FTT1 trace file. Close the Reader to release the
// file handle.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	r.closer = f
	return r, nil
}

// NewReader parses the FTT1 header from r and returns a Source over its
// events. See Reader for the re-iteration contract.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [fttHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: short FTT1 header: %w", err)
	}
	if string(hdr[:4]) != fttMagic {
		return nil, fmt.Errorf("trace: bad magic %q (want %q)", hdr[:4], fttMagic)
	}
	count := binary.LittleEndian.Uint64(hdr[4:12])
	fp := binary.LittleEndian.Uint64(hdr[12:20])
	pes := binary.LittleEndian.Uint32(hdr[20:24])
	nameLen := int(binary.LittleEndian.Uint16(hdr[24:26]))
	if count > fttMaxEvents {
		return nil, fmt.Errorf("trace: event count %d exceeds format limit %d", count, int64(fttMaxEvents))
	}
	if pes == 0 || pes > fttMaxPEs {
		return nil, fmt.Errorf("trace: PE count %d out of range [1,%d]", pes, fttMaxPEs)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, fmt.Errorf("trace: short name: %w", err)
	}
	if err := CheckName(string(name)); err != nil {
		return nil, err
	}
	rd := &Reader{hdr: Header{
		Name: string(name), PEs: int(pes), Events: int64(count), Fingerprint: fp,
	}}
	if ra, ok := r.(io.ReaderAt); ok {
		rd.ra = ra
		rd.dataOff = int64(fttHeaderLen + nameLen)
	} else {
		rd.once = r
	}
	return rd, nil
}

// Header implements Source.
func (r *Reader) Header() Header { return r.hdr }

// Open implements Source: a fresh cursor over the event stream. The cursor
// re-derives the content fingerprint as it decodes and fails at the end of
// the stream if it does not match the header — a full replay doubles as an
// integrity check, for free, because the hash is a few adds per word.
func (r *Reader) Open() (Cursor, error) {
	if r.ra != nil {
		sect := io.NewSectionReader(r.ra, r.dataOff, math.MaxInt64-r.dataOff)
		return newBinCursor(sect, r.hdr), nil
	}
	if r.opened {
		return nil, errors.New("trace: stream source supports a single Open (wrap a file or bytes.Reader for re-iteration)")
	}
	r.opened = true
	return newBinCursor(r.once, r.hdr), nil
}

// Close releases the underlying file when the Reader came from Open.
func (r *Reader) Close() error {
	if r.closer != nil {
		return r.closer.Close()
	}
	return nil
}

type binCursor struct {
	br   *bufio.Reader
	hdr  Header
	i    int64
	fp   uint64
	deps []int32
	done bool
}

// readers holds closed cursors' read buffers, reset to pin no reader.
var readers = make(freeList[*bufio.Reader], runtime.GOMAXPROCS(0))

func newBinCursor(r io.Reader, hdr Header) *binCursor {
	br := readers.get(func() *bufio.Reader { return bufio.NewReaderSize(nil, 1<<16) })
	br.Reset(r)
	return &binCursor{
		br:   br,
		hdr:  hdr,
		fp:   fpSeed(hdr.Name, hdr.PEs),
		deps: make([]int32, 0, fttDepPrealloc),
	}
}

func (c *binCursor) uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(c.br)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return 0, fmt.Errorf("trace: truncated at event %d of %d", c.i, c.hdr.Events)
	}
	return v, err
}

// Next implements Cursor. Every field is bounds-checked against the header
// before use, so a hostile stream can produce an error but never a panic or
// an event that would fail (*Trace).Validate.
func (c *binCursor) Next(e *Event) (bool, error) {
	if c.done {
		return false, nil
	}
	if c.i == c.hdr.Events {
		return false, c.finish()
	}
	src, err := c.uvarint()
	if err != nil {
		return false, err
	}
	dst, err := c.uvarint()
	if err != nil {
		return false, err
	}
	delay, err := c.uvarint()
	if err != nil {
		return false, err
	}
	ndeps, err := c.uvarint()
	if err != nil {
		return false, err
	}
	if src >= uint64(c.hdr.PEs) || dst >= uint64(c.hdr.PEs) {
		return false, fmt.Errorf("trace: event %d endpoints (%d->%d) out of range [0,%d)", c.i, src, dst, c.hdr.PEs)
	}
	if delay > math.MaxInt32 {
		return false, fmt.Errorf("trace: event %d delay %d overflows int32", c.i, delay)
	}
	// ndeps is untrusted: never allocate from it. The dep buffer grows by
	// append, bounded by bytes actually present in the stream.
	c.deps = c.deps[:0]
	h := c.fp
	h = fpWord(h, src)
	h = fpWord(h, dst)
	h = fpWord(h, delay)
	h = fpWord(h, ndeps)
	for k := uint64(0); k < ndeps; k++ {
		delta, err := c.uvarint()
		if err != nil {
			return false, err
		}
		if delta == 0 || delta > uint64(c.i) {
			return false, fmt.Errorf("trace: event %d dep delta %d out of range [1,%d]", c.i, delta, c.i)
		}
		dep := int32(c.i - int64(delta))
		c.deps = append(c.deps, dep)
		h = fpWord(h, uint64(dep))
	}
	e.Src = int(src)
	e.Dst = int(dst)
	e.Delay = int32(delay)
	e.Deps = c.deps
	c.fp = h
	c.i++
	return true, nil
}

// finish runs the end-of-stream checks once: trailing garbage after the
// declared event count is an error (matching the text Read), and the
// re-derived fingerprint must equal the header's.
func (c *binCursor) finish() error {
	c.done = true
	if _, err := c.br.ReadByte(); err != io.EOF {
		if err != nil {
			return err
		}
		return fmt.Errorf("trace: trailing data after %d declared events", c.hdr.Events)
	}
	if got := fpFinish(c.fp, c.hdr.Events); got != c.hdr.Fingerprint {
		return fmt.Errorf("trace: content fingerprint %016x does not match header %016x (corrupt stream)", got, c.hdr.Fingerprint)
	}
	return nil
}

// Close hands the read buffer to the next cursor; a second Close does nothing.
func (c *binCursor) Close() error {
	if c.br != nil {
		c.br.Reset(nil)
		readers.put(c.br)
		c.br = nil
	}
	return nil
}

// EncodeBinary writes t as a complete FTT1 stream. Unlike the incremental
// Writer it knows the count and fingerprint up front, so any io.Writer works
// (no backpatching seek).
func EncodeBinary(w io.Writer, t *Trace) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if err := checkHeader(t.Name, t.PEs); err != nil {
		return err
	}
	if len(t.Events) > fttMaxEvents {
		return fmt.Errorf("trace: %d events exceeds format limit %d", len(t.Events), int64(fttMaxEvents))
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	buf := appendHeader(nil, t.Name, t.PEs, int64(len(t.Events)), t.Fingerprint())
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	for i, e := range t.Events {
		buf = appendEvent(buf[:0], int64(i), e.Src, e.Dst, e.Delay, e.Deps)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBinary materializes an FTT1 stream as an in-memory Trace (the inverse
// of EncodeBinary; the round-trip tests use it). The decoded
// trace is validated and its fingerprint checked against the header.
func ReadBinary(r io.Reader) (*Trace, error) {
	rd, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	cur, err := rd.Open()
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	b := NewBuilder(rd.hdr.Name, rd.hdr.PEs)
	var e Event
	for {
		ok, err := cur.Next(&e)
		if err != nil {
			return nil, err
		}
		if !ok {
			return b.Build()
		}
		b.Add(e.Src, e.Dst, e.Delay, e.Deps...)
	}
}
