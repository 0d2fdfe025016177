package index

import "math"

// Bounds are stored as 16-bit fixed point over [0, 1]: q stands for
// q/maxBound, so 0 and 1 are exact and the step is ≈ 1.5e-5. The numbers a
// probabilistic store hands out must stay valid under every operation, so
// whatever quantization shaves off a bound it shaves upward: Quantize(b) is
// the smallest q with Dequantize(q) ≥ b, and a quantized bound is as
// admissible as the bound it came from. Sums and mins of bounds are taken on
// the integers — exact, so order-free — and converted once, when a lookup
// leaves the index.
const maxBound = math.MaxUint16

// Quantize rounds the probability bound b up to 16-bit fixed point.
// Anything that is not a probability — NaN, negative, above 1 — becomes the
// vacuous bound 1.
func Quantize(b float64) uint16 {
	if !(b >= 0 && b <= 1) {
		return maxBound
	}
	// b·maxBound can round down onto an integer whose Dequantize falls short
	// of b; step up until it does not. (It never rounds up past an integer
	// that already reaches b: only a grid point could, and the tests try all
	// 65536.)
	q := uint16(math.Ceil(b * maxBound))
	for Dequantize(q) < b {
		q++
	}
	return q
}

// Dequantize returns the probability bound q stands for.
func Dequantize(q uint16) float64 { return float64(q) / maxBound }
