package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d collisions between different seeds", same)
	}
}

func TestSplitByIndependentAndStable(t *testing.T) {
	root := New(7)
	a1 := root.SplitBy(1)
	a2 := root.SplitBy(1)
	bb := root.SplitBy(2)
	if a1.Uint64() != a2.Uint64() {
		t.Error("SplitBy must be a pure function of (seed, label)")
	}
	if a2.Uint64() == bb.Uint64() {
		t.Error("different labels should give different streams")
	}
}

func TestIntnBoundsProperty(t *testing.T) {
	r := New(3)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestBoolEdgeCases(t *testing.T) {
	r := New(5)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate %v", p)
	}
}

func TestZipfFavoursSmallRanks(t *testing.T) {
	r := New(29)
	z := NewZipf(r, 100, 1.2)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		v := z.Next()
		if v < 0 || v >= 100 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	if !(counts[0] > counts[10] && counts[10] > counts[50]) {
		t.Errorf("Zipf not rank-decreasing: c0=%d c10=%d c50=%d", counts[0], counts[10], counts[50])
	}
}

// TestIntnMatchesSchoolbookMultiply holds Intn, whose Lemire rejection uses
// math/bits.Mul64, to the same rejection loop over a schoolbook 128-bit
// product on 32-bit limbs, so every seeded stream stays bit-identical.
func TestIntnMatchesSchoolbookMultiply(t *testing.T) {
	mul := func(a, b uint64) (hi, lo uint64) {
		const mask = 1<<32 - 1
		a0, a1 := a&mask, a>>32
		b0, b1 := b&mask, b>>32
		w0 := a0 * b0
		t1 := a1*b0 + w0>>32
		w1 := t1&mask + a0*b1
		return a1*b1 + t1>>32 + w1>>32, a * b
	}
	f := func(seed uint64, n uint32, big bool) bool {
		bound := uint64(n) + 1
		if big {
			bound = seed>>1 | 1 // large bounds reject often
		}
		r, ref := New(seed), New(seed)
		for range 64 {
			var want uint64
			for {
				hi, lo := mul(ref.Uint64(), bound)
				if lo >= bound || lo >= (-bound)%bound {
					want = hi
					break
				}
			}
			if uint64(r.Intn(int(bound))) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
