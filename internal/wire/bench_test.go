package wire

import (
	"bytes"
	"testing"

	"wmsketch/internal/datagen"
)

// benchUpdatePayload is one update request of 512 URL-like examples (30
// features each), the batch and stream of perfbench's ingest workload.
func benchUpdatePayload(b *testing.B) []byte {
	b.Helper()
	payload, err := AppendUpdateRequest(nil, datagen.URLLike(5).Take(512))
	if err != nil {
		b.Fatal(err)
	}
	return payload
}

// BenchmarkDecodeUpdateRequest decodes that payload with a pooled nnz
// scratch, as the binary server does per update frame.
func BenchmarkDecodeUpdateRequest(b *testing.B) {
	payload := benchUpdatePayload(b)
	var nnz []int
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for b.Loop() {
		var err error
		if _, nnz, err = DecodeUpdateRequest(payload, nnz); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadRequestFrame reads the frame carrying that payload (header,
// chunked payload read, CRC check) into a reused buffer.
func BenchmarkReadRequestFrame(b *testing.B) {
	var msg bytes.Buffer
	if _, err := WriteFrame(&msg, OpUpdate, 1, benchUpdatePayload(b)); err != nil {
		b.Fatal(err)
	}
	var (
		r   bytes.Reader
		buf []byte
	)
	b.ReportAllocs()
	b.SetBytes(int64(msg.Len()))
	for b.Loop() {
		r.Reset(msg.Bytes())
		var err error
		if _, buf, err = ReadRequestFrame(&r, buf); err != nil {
			b.Fatal(err)
		}
	}
}
