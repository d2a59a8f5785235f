package stats

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

func TestAccumulatorGobRoundTrip(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{3, 1.5, 9.25, 0.125, 7} {
		a.Add(x)
	}
	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var b Accumulator
	if err := b.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("round trip changed accumulator: %+v vs %+v", a, b)
	}
	if b.Mean() != a.Mean() || variance(&b) != variance(&a) {
		t.Fatalf("moments drifted: mean %v vs %v", a.Mean(), b.Mean())
	}
}

func TestAccumulatorGobZeroValue(t *testing.T) {
	var a Accumulator
	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var b Accumulator
	if err := b.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("zero-value round trip diverged: %+v vs %+v", a, b)
	}
}

func TestHistogramGobRoundTrip(t *testing.T) {
	h := NewLatencyHistogram(1 << 12)
	for _, x := range []int64{1, 3, 17, 400, 4096, 9999999} { // incl. overflow
		h.Add(x)
	}
	blob, err := h.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g := new(Histogram)
	if err := g.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, g) {
		t.Fatalf("round trip changed histogram")
	}
	if g.Count() != h.Count() || g.Quantile(0.5) != h.Quantile(0.5) || g.Max() != h.Max() {
		t.Fatalf("derived stats drifted after decode")
	}
	// Decoded histograms must keep working as accumulators.
	g.Add(7)
	if g.Count() != h.Count()+1 {
		t.Fatalf("decoded histogram rejects new samples")
	}
}

// TestAccumulatorWireBitExact: every float64 payload survives, including the
// ones DeepEqual and == cannot compare (NaN) or tell apart (-0).
func TestAccumulatorWireBitExact(t *testing.T) {
	for _, a := range []Accumulator{
		{},
		{n: 3, mean: math.Inf(1), m2: math.Inf(-1), min: math.NaN(), max: math.Copysign(0, -1)},
		{n: math.MinInt64, mean: math.Float64frombits(0x7ff8dead0000beef), m2: math.SmallestNonzeroFloat64, min: -math.MaxFloat64, max: math.MaxFloat64},
	} {
		blob, err := a.MarshalBinary()
		if err != nil || len(blob) != 40 {
			t.Fatalf("encode %+v: %d bytes, err %v", a, len(blob), err)
		}
		var b Accumulator
		if err := b.UnmarshalBinary(blob); err != nil {
			t.Fatal(err)
		}
		for i, f := range [][2]float64{{a.mean, b.mean}, {a.m2, b.m2}, {a.min, b.min}, {a.max, b.max}} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				t.Errorf("%+v: float field %d changed bits: %x -> %x", a, i, math.Float64bits(f[0]), math.Float64bits(f[1]))
			}
		}
		if a.n != b.n {
			t.Errorf("n %d -> %d", a.n, b.n)
		}
	}
}

// TestHistogramWireNilVsEmpty: the zero value, nil slices and empty slices
// each decode to what was encoded, DeepEqual (the end-to-end demand of
// runner's TestCacheRoundTripBitIdentical).
func TestHistogramWireNilVsEmpty(t *testing.T) {
	for _, h := range []*Histogram{
		{},
		{bounds: []int64{}, counts: []int64{}},
		{bounds: []int64{}, over: 4, n: 4, sum: -9, max: math.MaxInt64},
		NewLatencyHistogram(0),
		NewLatencyHistogram(1 << 20),
	} {
		blob, err := h.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		g := new(Histogram)
		if err := g.UnmarshalBinary(blob); err != nil {
			t.Fatalf("%+v: %v", h, err)
		}
		if !reflect.DeepEqual(h, g) {
			t.Errorf("round trip changed histogram:\n%+v\n%+v", h, g)
		}
	}
}

// TestWireRejectsHostileBlobs: truncated, over-long and length-lying blobs
// are errors. A lying count must fail before any make — a make of 2^62
// words would panic or exhaust memory, so returning at all proves it.
func TestWireRejectsHostileBlobs(t *testing.T) {
	var a Accumulator
	a.Add(2.5)
	good, _ := a.MarshalBinary()
	for _, blob := range [][]byte{nil, good[:39], append(good[:40:40], 0), good[:8]} {
		if err := new(Accumulator).UnmarshalBinary(blob); err == nil {
			t.Errorf("accumulator accepted a %d-byte blob", len(blob))
		}
	}

	h := NewLatencyHistogram(64)
	h.Add(5)
	hgood, _ := h.MarshalBinary()
	if err := new(Histogram).UnmarshalBinary(hgood); err != nil {
		t.Fatal(err)
	}
	words := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	withLens := func(nb, nc int64) []byte { return append(words(nb, nc), hgood[16:]...) }
	for name, blob := range map[string][]byte{
		"empty":             nil,
		"truncated":         hgood[:len(hgood)-8],
		"ragged":            hgood[:len(hgood)-3],
		"over-long":         append(hgood[:len(hgood):len(hgood)], make([]byte, 8)...),
		"bounds 2^62":       withLens(1<<62, int64(len(h.counts))),
		"counts 2^62":       withLens(int64(len(h.bounds)), 1<<62),
		"both 2^62":         withLens(1<<62, 1<<62),
		"sum wraps":         withLens(math.MaxInt64, math.MinInt64+2+int64(len(hgood)/8-6)),
		"negative length":   withLens(-2, int64(len(h.bounds)+len(h.counts))+2),
		"lengths swapped":   withLens(int64(len(h.bounds))+1, int64(len(h.counts))-1),
		"foreign geometry":  words(2, 2, 1, 7, 0, 0, 0, 0, 0, 0),
		"negative bound":    words(1, 1, -5, 0, 0, 0, 0, 0),
		"huge last bound":   words(1, 1, math.MaxInt64, 0, 0, 0, 0, 0),
		"counts, no bounds": words(-1, 1, 0, 0, 0, 0, 0),
	} {
		if err := new(Histogram).UnmarshalBinary(blob); err == nil {
			t.Errorf("histogram accepted the %s blob", name)
		}
	}
}
