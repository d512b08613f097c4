// Package frame holds the bounded-decode rules shared by every byte format
// this repository reads from outside the process: the binary hot
// protocol's frames (internal/wire), the delta-gossip frames
// (internal/cluster), and sketch and learner checkpoints (internal/sketch,
// internal/core). Each format keeps its own layout and limits; the rules
// live here once:
//
//  1. Bounded counts. A count read from the input is checked against the
//     format's limit before anything is sized from it (Cursor.Count,
//     ReadCount).
//  2. Chunked allocation. A buffer sized from a declared length grows at
//     most MaxUpfrontAlloc bytes ahead of the input that has arrived
//     (UpfrontCap, ReadN, ReadPayload), so a short hostile input declaring
//     a huge length fails after one chunk instead of demanding the whole
//     length up front.
//  3. Exact consumption. A payload is consumed exactly (Cursor.Done, and
//     AtEOF for a stream): trailing bytes mark the input malformed.
//  4. Finite floats. Every float64 decoded is checked for NaN and ±Inf
//     before it can reach model state (Cursor.F64, Cursor.F64s, ReadF64s,
//     Finite): a NaN compares false against every later bound, so no
//     range check downstream would catch it.
//
// A payload that arrives whole (a CRC-checked frame) is decoded through a
// Cursor; a checkpoint, read section by section from a stream, through
// the stream functions.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
)

// MaxUpfrontAlloc caps the bytes allocated from a declared length alone.
// Larger (still-bounded) buffers grow by this much at a time, and only as
// input arrives.
const MaxUpfrontAlloc = 1 << 16

// UpfrontCap bounds the capacity allocated from a declared count before
// the input it describes has arrived.
func UpfrontCap(n int) int { return min(n, MaxUpfrontAlloc) }

// bound validates a decoded count against limit.
func bound(v uint64, limit int) (int, error) {
	if v > uint64(limit) {
		return 0, fmt.Errorf("count %d exceeds limit %d", v, limit)
	}
	return int(v), nil
}

// expBits is the float64 exponent field, all ones exactly for NaN and ±Inf.
const expBits = 0x7FF0000000000000

// Finite reports whether v is neither NaN nor ±Inf.
func Finite(v float64) bool { return math.Float64bits(v)&expBits != expBits }

// NonFinite is the error for a rejected NaN or ±Inf.
func NonFinite(v float64) error { return fmt.Errorf("non-finite value (%g)", v) }

// Cursor is a bounds-checked read position in a payload that has arrived
// whole. A read that fails leaves the payload malformed as a whole:
// callers stop at the first error.
type Cursor struct {
	b   []byte
	off int
}

// NewCursor returns a cursor at the start of b.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Len is the number of unread bytes.
func (c *Cursor) Len() int { return len(c.b) - c.off }

// Rest returns the unread bytes without consuming them; a caller that
// decodes them itself reports how many it used with Skip.
func (c *Cursor) Rest() []byte { return c.b[c.off:] }

// Skip consumes n bytes of Rest; n must not exceed Len.
func (c *Cursor) Skip(n int) {
	if n < 0 || n > c.Len() {
		panic(fmt.Sprintf("frame: skip of %d bytes with %d left", n, c.Len()))
	}
	c.off += n
}

// Done requires the payload to be fully consumed.
func (c *Cursor) Done() error {
	if n := c.Len(); n > 0 {
		return fmt.Errorf("%d trailing bytes after payload", n)
	}
	return nil
}

// Bytes consumes the next n bytes and returns them (aliasing the payload).
func (c *Cursor) Bytes(n int) ([]byte, error) {
	if n < 0 || n > c.Len() {
		return nil, fmt.Errorf("truncated payload: %d bytes wanted, %d left", n, c.Len())
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b, nil
}

// U8 consumes one byte.
func (c *Cursor) U8() (byte, error) {
	if c.Len() < 1 {
		return 0, fmt.Errorf("truncated payload")
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

// Uvarint consumes one unsigned varint.
func (c *Cursor) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("bad uvarint at offset %d", c.off)
	}
	c.off += n
	return v, nil
}

// Count consumes a uvarint count and bounds it by limit: the sanitizer
// every allocation-sizing count passes through.
func (c *Cursor) Count(limit int) (int, error) {
	v, err := c.Uvarint()
	if err != nil {
		return 0, err
	}
	return bound(v, limit)
}

// Index consumes a uvarint that must fit a uint32 (a feature index, a
// bucket index, a heap key).
func (c *Cursor) Index() (uint32, error) {
	v, err := c.Uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxUint32 {
		return 0, fmt.Errorf("index %d overflows uint32", v)
	}
	return uint32(v), nil
}

// F64 consumes one little-endian float64 and rejects NaN and ±Inf.
func (c *Cursor) F64() (float64, error) {
	if c.Len() < 8 {
		return 0, fmt.Errorf("truncated float")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b[c.off:]))
	if !Finite(v) {
		return 0, NonFinite(v)
	}
	c.off += 8
	return v, nil
}

// F64s fills dst with consecutive little-endian float64s, rejecting NaN
// and ±Inf: the bulk form of F64 for arrays such as sketch rows.
func (c *Cursor) F64s(dst []float64) error {
	if c.Len() < 8*len(dst) {
		return fmt.Errorf("truncated floats: %d wanted, %d bytes left", len(dst), c.Len())
	}
	b := c.b[c.off : c.off+8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		if !Finite(dst[i]) {
			return fmt.Errorf("value %d: %w", i, NonFinite(dst[i]))
		}
	}
	c.off += len(b)
	return nil
}

// ReadCount reads a uvarint count from a stream and bounds it by limit.
func ReadCount(r io.ByteReader, limit int) (int, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	return bound(v, limit)
}

// ReadN reads exactly n bytes, a length the caller has already bounded,
// into buf's capacity. The buffer grows at most MaxUpfrontAlloc bytes
// ahead of the bytes that have arrived. It returns the bytes and, on
// error, the emptied (possibly grown) buffer for reuse.
func ReadN(r io.Reader, buf []byte, n int) ([]byte, error) {
	if cap(buf) < UpfrontCap(n) {
		buf = make([]byte, 0, UpfrontCap(n))
	}
	b := buf[:0]
	for len(b) < n {
		start := len(b)
		b = append(b, make([]byte, min(n-start, MaxUpfrontAlloc))...)
		if _, err := io.ReadFull(r, b[start:]); err != nil {
			return b[:0], fmt.Errorf("truncated payload: %w", err)
		}
	}
	return b, nil
}

// ReadPayload is ReadN followed by the 4-byte little-endian CRC32 (IEEE)
// trailer, which must equal the checksum of the payload continued from
// seed: a format whose CRC also covers a header passes the header's
// checksum, one whose CRC covers the payload alone passes 0.
func ReadPayload(r io.Reader, buf []byte, n int, seed uint32) ([]byte, error) {
	b, err := ReadN(r, buf, n)
	if err != nil {
		return b, err
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return b[:0], fmt.Errorf("truncated checksum: %w", err)
	}
	crc := crc32.Update(seed, crc32.IEEETable, b)
	if got := binary.LittleEndian.Uint32(trailer[:]); got != crc {
		return b[:0], fmt.Errorf("checksum mismatch (computed %#x, trailer %#x)", crc, got)
	}
	return b, nil
}

// ReadF64s fills dst with little-endian float64s read from r a chunk at a
// time, rejecting NaN and ±Inf: the stream form of Cursor.F64s. It reads
// exactly 8·len(dst) bytes, through a pooled chunk buffer, so the
// sections of one checkpoint (a sharded model's shards) share one.
func ReadF64s(r io.Reader, dst []float64) error {
	const chunk = MaxUpfrontAlloc / 8
	bp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bp)
	scratch := *bp
	for done := 0; done < len(dst); {
		part := dst[done:min(done+chunk, len(dst))]
		b := scratch[:8*len(part)]
		if _, err := io.ReadFull(r, b); err != nil {
			return fmt.Errorf("truncated floats: %w", err)
		}
		if err := NewCursor(b).F64s(part); err != nil {
			return fmt.Errorf("floats from %d: %w", done, err)
		}
		done += len(part)
	}
	return nil
}

// chunkPool holds ReadF64s' MaxUpfrontAlloc-byte chunk buffers.
var chunkPool = sync.Pool{New: func() any {
	b := make([]byte, MaxUpfrontAlloc)
	return &b
}}

// AtEOF requires r to be exhausted: the exact-consumption rule for a
// stream that must end where its last section does.
func AtEOF(r io.Reader) error {
	var b [1]byte
	n, err := io.ReadFull(r, b[:])
	switch {
	case n > 0:
		return fmt.Errorf("trailing bytes after the end")
	case err == io.EOF:
		return nil
	}
	return err
}
