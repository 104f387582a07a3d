package vector

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary layout of a vector:
//
//	uint32 n
//	n * int32   term IDs (delta-encoded would save space; kept plain for
//	            simplicity and O(1) random access during decode)
//	n * float64 weights
//
// All integers are little-endian. The encoding is used by the simulated
// disk layer to serialize IUR-tree node summaries into 4 KiB pages.

// EncodedSize returns the number of bytes AppendBinary will write for v.
func (v Vector) EncodedSize() int {
	return 4 + len(v.terms)*(4+8)
}

// AppendBinary appends the binary encoding of v to dst and returns the
// extended slice.
func (v Vector) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(v.terms)))
	for _, t := range v.terms {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(t))
	}
	for _, w := range v.weights {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(w))
	}
	return dst
}

// DecodeVector decodes a vector from the front of buf and returns it along
// with the number of bytes consumed.
func DecodeVector(buf []byte) (Vector, int, error) {
	if len(buf) < 4 {
		return Vector{}, 0, fmt.Errorf("vector: truncated header (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf))
	// Division form, not "len(buf) < 4+n*12": the product overflows int32
	// for large n, so on a 32-bit platform the multiplied guard wraps and
	// admits a count far beyond the buffer (n itself can even be negative
	// there). The divided comparison is exact at every int width.
	if n < 0 || n > (len(buf)-4)/(4+8) {
		return Vector{}, 0, fmt.Errorf("vector: need %d bytes, have %d", 4+n*(4+8), len(buf))
	}
	if n == 0 {
		return Vector{}, 4, nil
	}
	terms := make([]TermID, n)
	off := 4
	for i := 0; i < n; i++ {
		terms[i] = TermID(binary.LittleEndian.Uint32(buf[off:]))
		off += 4
	}
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	for i := 1; i < n; i++ {
		if terms[i] <= terms[i-1] {
			return Vector{}, 0, fmt.Errorf("vector: corrupt encoding, terms out of order at %d", i)
		}
	}
	// Every bound assumes positive, finite weights (see FromPairs); a NaN
	// or an infinity would also make Equal fail on the vector itself.
	for i, w := range weights {
		if !(w > 0) || math.IsInf(w, 1) {
			return Vector{}, 0, fmt.Errorf("vector: corrupt encoding, weight %g at %d is not positive and finite", w, i)
		}
	}
	return newVector(terms, weights), off, nil
}

// EncodedSize returns the number of bytes AppendBinary will write for e.
func (e Envelope) EncodedSize() int {
	return e.Int.EncodedSize() + e.Uni.EncodedSize()
}

// AppendBinary appends the binary encoding of the envelope (intersection
// vector then union vector) to dst.
func (e Envelope) AppendBinary(dst []byte) []byte {
	dst = e.Int.AppendBinary(dst)
	return e.Uni.AppendBinary(dst)
}

// DecodeEnvelope decodes an envelope from the front of buf and returns it
// along with the number of bytes consumed.
func DecodeEnvelope(buf []byte) (Envelope, int, error) {
	intv, n1, err := DecodeVector(buf)
	if err != nil {
		return Envelope{}, 0, fmt.Errorf("envelope int: %w", err)
	}
	univ, n2, err := DecodeVector(buf[n1:])
	if err != nil {
		return Envelope{}, 0, fmt.Errorf("envelope uni: %w", err)
	}
	return Envelope{Int: intv, Uni: univ}, n1 + n2, nil
}
