package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
)

// OpenFile opens path as a trace Source, sniffing the format: an FTT1
// binary file opens as a streaming *Reader (constant-memory replay), any
// other content parses as a text trace into an in-memory *Trace. The
// returned closer releases the file handle (a no-op for text traces, which
// are fully read before returning).
func OpenFile(path string) (Source, io.Closer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	var magic [len(fttMagic)]byte
	n, _ := io.ReadFull(f, magic[:])
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	if n == len(fttMagic) && string(magic[:]) == fttMagic {
		rd, err := NewReader(f)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		rd.closer = f
		return rd, rd, nil
	}
	defer f.Close()
	tr, err := Read(f)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nopCloser{}, nil
}

type nopCloser struct{}

func (nopCloser) Close() error { return nil }

// WriteText streams src to w in the line-oriented text format, without
// materializing the trace:
//
//	trace <name> <pes> <events>
//	<src> <dst> <delay> [dep ...]
//
// Names containing whitespace are rejected before anything is written (see
// CheckName): the header line is space-delimited and a spaced name would
// round-trip corrupted.
func WriteText(w io.Writer, src Source) error {
	var hdr Header
	if t, ok := src.(*Trace); ok {
		hdr = t.shape() // the fingerprint is not printed; skip its O(events) pass
	} else {
		hdr = src.Header()
	}
	if err := CheckName(hdr.Name); err != nil {
		return err
	}
	cur, err := src.Open()
	if err != nil {
		return err
	}
	defer cur.Close()
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "trace %s %d %d\n", hdr.Name, hdr.PEs, hdr.Events)
	var e Event
	for {
		ok, err := cur.Next(&e)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		fmt.Fprintf(bw, "%d %d %d", e.Src, e.Dst, e.Delay)
		for _, d := range e.Deps {
			fmt.Fprintf(bw, " %d", d)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// EncodeBinaryFrom streams src to ws as an FTT1 file — the record half of a
// text↔binary conversion. The source's events pass straight through the
// streaming Writer, so memory stays O(1) in the trace length and the
// resulting header fingerprint equals the source's.
func EncodeBinaryFrom(ws io.WriteSeeker, src Source) (Header, error) {
	hdr := src.Header()
	w, err := NewWriter(ws, hdr.Name, hdr.PEs)
	if err != nil {
		return Header{}, err
	}
	cur, err := src.Open()
	if err != nil {
		return Header{}, err
	}
	defer cur.Close()
	var e Event
	for {
		ok, err := cur.Next(&e)
		if err != nil {
			return Header{}, err
		}
		if !ok {
			break
		}
		w.Add(e.Src, e.Dst, e.Delay, e.Deps...)
	}
	if err := w.Close(); err != nil {
		return Header{}, err
	}
	return w.Header(), nil
}
