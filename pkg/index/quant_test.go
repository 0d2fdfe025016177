package index

import (
	"math"
	"testing"
)

// checkQuantize asserts the quantizer's whole contract at b: admissible
// (never below b), tight (the smallest such q), and the vacuous bound for
// anything that is not a probability.
func checkQuantize(t *testing.T, b float64) {
	t.Helper()
	q := Quantize(b)
	if math.IsNaN(b) || b < 0 || b > 1 {
		if q != maxBound {
			t.Fatalf("Quantize(%v) = %d, want the vacuous bound %d", b, q, maxBound)
		}
		return
	}
	if got := Dequantize(q); got < b {
		t.Fatalf("Quantize(%v) = %d dequantizes to %v, below the bound it stands for (by %g)", b, q, got, b-got)
	}
	if q > 0 && Dequantize(q-1) >= b {
		t.Fatalf("Quantize(%v) = %d, but %d already reaches it", b, q, q-1)
	}
}

// TestQuantizeAdmissible walks the values where ceil(b·65535)/65535 goes
// wrong: each grid point k/65535 and its neighbours one ulp either side
// (the product rounds onto an integer whose quotient falls short, or past
// the one that reaches), the ends of the range, subnormals, and everything
// that is not a probability. It also pins that the grid is a fixed point
// and that quantizing is monotone.
func TestQuantizeAdmissible(t *testing.T) {
	for k := 0; k <= maxBound; k++ {
		q := uint16(k)
		at := Dequantize(q)
		if got := Quantize(at); got != q {
			t.Fatalf("Quantize(Dequantize(%d)) = %d", q, got)
		}
		checkQuantize(t, math.Nextafter(at, 0))
		checkQuantize(t, math.Nextafter(at, 2))
		checkQuantize(t, float64(k)/maxBound*(1+1e-15))
		if k > 0 && Dequantize(q-1) >= at {
			t.Fatalf("Dequantize is not increasing at %d", q)
		}
	}
	for _, b := range []float64{
		0, math.Copysign(0, -1), 1, math.SmallestNonzeroFloat64, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-9,
		0.5, 1 - 1e-16, math.Nextafter(1, 0), math.Nextafter(1, 2), 1.5, -1e-300, -1, math.Inf(1), math.Inf(-1), math.NaN(),
	} {
		checkQuantize(t, b)
	}
	if Quantize(0) != 0 || Quantize(1) != maxBound || Dequantize(maxBound) != 1 || Dequantize(0) != 0 {
		t.Fatal("0 and 1 are not exact")
	}
	if Quantize(math.SmallestNonzeroFloat64) != 1 {
		t.Fatal("a positive bound quantized to 0")
	}
	prev, prevQ := 0.0, uint16(0)
	for b := 0.0; b <= 1; b += 1.0 / 99991 {
		if q := Quantize(b); q < prevQ {
			t.Fatalf("not monotone: Quantize(%v) = %d > Quantize(%v) = %d", prev, prevQ, b, q)
		} else {
			prev, prevQ = b, q
		}
	}
}

// FuzzQuantize is the same contract over arbitrary bit patterns, plus
// monotonicity between any two probabilities.
func FuzzQuantize(f *testing.F) {
	for _, b := range []float64{0, 1, 0.5, 1.0 / 3, 32767.0 / 65535, math.Nextafter(32767.0/65535, 1), 5e-324, math.NaN(), -0.25, 7} {
		f.Add(math.Float64bits(b), math.Float64bits(1-b))
	}
	f.Fuzz(func(t *testing.T, aBits, bBits uint64) {
		a, b := math.Float64frombits(aBits), math.Float64frombits(bBits)
		checkQuantize(t, a)
		checkQuantize(t, b)
		if a >= 0 && a <= b && b <= 1 && Quantize(a) > Quantize(b) {
			t.Fatalf("not monotone: Quantize(%v) = %d > Quantize(%v) = %d", a, Quantize(a), b, Quantize(b))
		}
	})
}
