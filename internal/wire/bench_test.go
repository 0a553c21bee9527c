package wire

import (
	"bytes"
	"math/rand"
	"testing"
)

// The PR 7 trajectory set: one op is a full /batch payload round trip —
// encode rows probability vectors, decode them back — through each codec.
// wirebytes/op records the encoded body size, the number the binary codec
// exists to shrink: the acceptance gate is ≥2x fewer bytes and less time
// than JSON at batch 256, bit-identically.

// benchRows builds a /batch-shaped payload: rows probability vectors with
// full-precision mantissas, the worst case for decimal formatting.
func benchRows(rows, cols int) [][]float64 {
	rng := rand.New(rand.NewSource(int64(rows)))
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = rng.Float64()
		}
	}
	return m
}

func benchCodec(b *testing.B, codec Codec, rows, cols int) {
	m := benchRows(rows, cols)
	var buf bytes.Buffer
	if err := codec.EncodeMat(&buf, "xs", m); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := codec.EncodeMat(&buf, "xs", m); err != nil {
			b.Fatal(err)
		}
		got, err := codec.DecodeMat(bytes.NewReader(buf.Bytes()), 0, "xs")
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != rows {
			b.Fatalf("%d rows decoded, want %d", len(got), rows)
		}
	}
	// After the loop: ResetTimer deletes user-reported metrics.
	b.ReportMetric(float64(buf.Len()), "wirebytes/op")
}

func BenchmarkWireBatchJSON_16(b *testing.B)      { benchCodec(b, JSON{}, 16, 8) }
func BenchmarkWireBatchJSON_256(b *testing.B)     { benchCodec(b, JSON{}, 256, 8) }
func BenchmarkWireBatchJSON_4096(b *testing.B)    { benchCodec(b, JSON{}, 4096, 8) }
func BenchmarkWireBatchBinary_16(b *testing.B)    { benchCodec(b, Binary{}, 16, 8) }
func BenchmarkWireBatchBinary_256(b *testing.B)   { benchCodec(b, Binary{}, 256, 8) }
func BenchmarkWireBatchBinary_4096(b *testing.B)  { benchCodec(b, Binary{}, 4096, 8) }
func BenchmarkWireBatchFloat32_256(b *testing.B)  { benchCodec(b, Binary{Float32: true}, 256, 8) }
func BenchmarkWireBatchFloat32_4096(b *testing.B) { benchCodec(b, Binary{Float32: true}, 4096, 8) }

// Frames at the shapes the stack moves: one interpret-784 probe (786 rows
// of 784 pixels) and one batch-784 request (256 rows). Not in the
// committed trajectory snapshots, so the gate does not check them.
func BenchmarkWireBatchBinary_786x784(b *testing.B) {
	b.ReportAllocs()
	benchCodec(b, Binary{}, 786, 784)
}

func BenchmarkWireBatchBinary_256x784(b *testing.B) {
	b.ReportAllocs()
	benchCodec(b, Binary{}, 256, 784)
}
