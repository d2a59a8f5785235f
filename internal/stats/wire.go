package stats

// Wire codecs for the measurement types embedded in sim.Result, which the
// result cache (internal/runner) writes as length-prefixed blobs of their
// own: they implement encoding.BinaryMarshaler and BinaryUnmarshaler, so the
// private state a field-by-field codec cannot reach round-trips and a decoded
// result is bit-identical to the measured one. Blobs are flat little-endian
// words. Decoders check the blob's exact length before allocating: a corrupt
// blob is an error (a cache miss that heals), never a panic or an oversized
// make. runner's entryFormat versions the layout.

import (
	"encoding/binary"
	"errors"
	"math"
	"slices"
)

var errWire = errors.New("stats: malformed wire blob")

func putWords(b []byte, vs ...int64) []byte {
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func word(b []byte, i int) int64 { return int64(binary.LittleEndian.Uint64(b[8*i:])) }

// MarshalBinary implements encoding.BinaryMarshaler: 40 bytes, n then the
// Float64bits of mean, m2, min and max.
func (a Accumulator) MarshalBinary() ([]byte, error) {
	bits := func(f float64) int64 { return int64(math.Float64bits(f)) }
	return putWords(make([]byte, 0, 40), a.n, bits(a.mean), bits(a.m2), bits(a.min), bits(a.max)), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (a *Accumulator) UnmarshalBinary(b []byte) error {
	if len(b) != 40 {
		return errWire
	}
	float := func(i int) float64 { return math.Float64frombits(uint64(word(b, i))) }
	a.n, a.mean, a.m2, a.min, a.max = word(b, 0), float(1), float(2), float(3), float(4)
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler: len(bounds) and
// len(counts) (-1 for nil, which DeepEqual tells from empty), the two arrays,
// over, n, sum, max.
func (h *Histogram) MarshalBinary() ([]byte, error) {
	b := make([]byte, 0, 8*(6+len(h.bounds)+len(h.counts)))
	for _, s := range [][]int64{h.bounds, h.counts} {
		n := int64(len(s))
		if s == nil {
			n = -1
		}
		b = putWords(b, n)
	}
	b = putWords(putWords(b, h.bounds...), h.counts...)
	return putWords(b, h.over, h.n, h.sum, h.max), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (h *Histogram) UnmarshalBinary(b []byte) error {
	if len(b) < 6*8 || len(b)%8 != 0 {
		return errWire
	}
	w := make([]int64, len(b)/8) // sized by the blob itself, whatever its length words claim
	for i := range w {
		w[i] = word(b, i)
	}
	nb, nc, arrays, tail := w[0], w[1], w[2:len(w)-4], w[len(w)-4:]
	n := max(nb, 0)
	if nb < -1 || nc < -1 || n != max(nc, 0) || n > int64(len(arrays)) || 2*n != int64(len(arrays)) {
		return errWire
	}
	// Every histogram has NewLatencyHistogram's geometry, which keys the shared
	// smallCache tables: other bounds would poison them for live simulations.
	bounds, counts := arrays[:n:n], arrays[n:]
	if n > 0 && (bounds[n-1] < 0 || bounds[n-1] > 1<<62 || !slices.Equal(bounds, latencyBounds(bounds[n-1]))) {
		return errWire
	}
	if nb < 0 {
		bounds = nil
	}
	if nc < 0 {
		counts = nil
	}
	h.bounds, h.counts = bounds, counts
	h.over, h.n, h.sum, h.max = tail[0], tail[1], tail[2], tail[3]
	// Derived state, rebuilt so a decoded histogram is field-identical to a fresh one.
	h.small = smallIndex(h.bounds)
	return nil
}
