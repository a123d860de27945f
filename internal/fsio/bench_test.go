package fsio

import (
	"fmt"
	"testing"
)

// benchSizes are a journal record's payload and a checkpoint frame's (a
// 5.5k-parameter proxy's wire encoding), the two frame sizes the durable
// epoch writes.
var benchSizes = []int{60, 44_000}

func benchPayload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*131 + i>>8)
	}
	return p
}

// checksumSink keeps the compiler from dropping the benchmarked calls.
var checksumSink uint64

// BenchmarkChecksum reports the check word's throughput in MB/s.
func BenchmarkChecksum(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			p := benchPayload(n)
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				checksumSink = Checksum(p)
			}
		})
	}
}

// BenchmarkAppendFrame reports framing into a reused buffer, the way the
// journal and the segments write, in payload MB/s.
func BenchmarkAppendFrame(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			p := benchPayload(n)
			buf := AppendFrame(nil, p)
			b.SetBytes(int64(n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = AppendFrame(buf[:0], p)
			}
		})
	}
}
