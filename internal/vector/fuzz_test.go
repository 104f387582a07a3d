package vector_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"rstknn/internal/allocbound"
	"rstknn/internal/vector"
)

// FuzzVectorRoundTrip drives the binary vector codec with arbitrary
// bytes. Decoding must never panic, and any input the decoder accepts
// must re-encode byte-for-byte (the encoding is canonical: strictly
// increasing term IDs, weights preserved bit-exactly). The same holds
// one layer up for envelopes (an intersection/union vector pair). Both
// decodes, accepting or rejecting, stay within allocbound.Vector.
func FuzzVectorRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			v   vector.Vector
			e   vector.Envelope
			n   int
			err error
		)
		allocbound.Check(t, allocbound.Vector, len(data), func() { v, n, err = vector.DecodeVector(data) })
		if err == nil {
			if n > len(data) {
				t.Fatalf("DecodeVector consumed %d of %d bytes", n, len(data))
			}
			if re := v.AppendBinary(nil); !bytes.Equal(re, data[:n]) {
				t.Fatalf("vector round-trip changed bytes:\n in: %x\nout: %x", data[:n], re)
			}
		}
		allocbound.Check(t, allocbound.Vector, len(data), func() { e, n, err = vector.DecodeEnvelope(data) })
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("DecodeEnvelope consumed %d of %d bytes", n, len(data))
		}
		if re := e.AppendBinary(nil); !bytes.Equal(re, data[:n]) {
			t.Fatalf("envelope round-trip changed bytes:\n in: %x\nout: %x", data[:n], re)
		}
	})
}

// TestWriteVectorFuzzCorpus regenerates the checked-in seed corpus from
// real encodings. Run with RSTKNN_WRITE_CORPUS=1 to refresh testdata.
func TestWriteVectorFuzzCorpus(t *testing.T) {
	if os.Getenv("RSTKNN_WRITE_CORPUS") == "" {
		t.Skip("set RSTKNN_WRITE_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	small := vector.New(map[vector.TermID]float64{1: 0.5, 7: 2, 42: 1.25})
	wide := map[vector.TermID]float64{}
	for i := 0; i < 40; i++ {
		wide[vector.TermID(i*3)] = float64(i) + 0.125
	}
	env := vector.Merge(vector.Exact(small), vector.Exact(vector.New(wide)))
	seeds := [][]byte{
		vector.Vector{}.AppendBinary(nil),
		small.AppendBinary(nil),
		vector.New(wide).AppendBinary(nil),
		env.AppendBinary(nil),
		vector.Exact(small).AppendBinary(nil),
	}
	writeSeedCorpus(t, filepath.Join("testdata", "fuzz", "FuzzVectorRoundTrip"), seeds)
}

// TestWriteIndexFuzzCorpus regenerates FuzzIndexedDot's checked-in
// seed corpus (the input layout is indexFuzzVectors'). Run with
// RSTKNN_WRITE_CORPUS=1 to refresh testdata.
func TestWriteIndexFuzzCorpus(t *testing.T) {
	if os.Getenv("RSTKNN_WRITE_CORPUS") == "" {
		t.Skip("set RSTKNN_WRITE_CORPUS=1 to regenerate the fuzz seed corpus")
	}
	// seed encodes a large side starting at base with the given gap
	// bytes (gap g steps g+1 terms, 255 steps 2^24) and a short side at
	// the given offsets from base.
	seed := func(base int32, gaps []byte, probes ...int16) []byte {
		b := append([]byte{byte(len(gaps))}, binary.LittleEndian.AppendUint32(nil, uint32(base))...)
		b = append(b, gaps...)
		for _, p := range probes {
			b = binary.LittleEndian.AppendUint16(b, uint16(p))
		}
		return b
	}
	run := bytes.Repeat([]byte{0}, 199) // 200 consecutive terms
	seeds := [][]byte{
		seed(1000, run, 0, 63, 64, 199),                             // word bits 0, 63, 64 and the span's last term
		seed(1000, run, -9, -1),                                     // wholly below the span
		seed(1000, run, 200, 3000),                                  // wholly above the span
		seed(1000, run, -1, 0, 199, 200),                            // straddling both ends
		seed(-3000, bytes.Repeat([]byte{2}, 199), 0, 1, 3, 64, 597), // every third term, negative IDs
		seed(math.MinInt32, run[:63], 0, 63),                        // the lowest IDs
		seed(math.MaxInt32-63, run[:63], 0, 63),                     // the highest IDs
		seed(0, bytes.Repeat([]byte{255}, 31), 0, 1),                // 32 terms 2^24 apart: refused
		seed(5, nil), // one large-side term, empty short side
	}
	writeSeedCorpus(t, filepath.Join("testdata", "fuzz", "FuzzIndexedDot"), seeds)
}

// writeSeedCorpus writes seeds in the `go test fuzz v1` corpus format.
func writeSeedCorpus(t *testing.T, dir string, seeds [][]byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		body := "go test fuzz v1\n[]byte(" + strconv.Quote(string(seed)) + ")\n"
		name := filepath.Join(dir, "seed-"+strconv.Itoa(i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
