package sketch

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"wmsketch/internal/frame"
)

// Serialization format of a Count-Sketch (little-endian):
//
//	magic   uint32  ('WMCS')
//	version uint32
//	seed    int64
//	depth   uint32
//	width   uint32
//	flags   uint32  (reserved: written as 0, refused when set)
//	buckets depth*width float64
//
// The hash functions are reconstructed from the seed, so a deserialized
// sketch answers queries identically to the original and remains mergeable
// with sketches built from the same seed.
//
// Restore follows internal/frame's decode rules: the header's shape is
// bounded (MaxDepth, MaxBuckets) before the buckets are allocated, every
// restored bucket is checked for NaN/±Inf as it is decoded — a long-lived
// serving process must never adopt a checkpoint that would poison its
// arithmetic — and a restore consumes exactly the sketch's own bytes, so a
// sketch can be read from the middle of a larger checkpoint or frame. A
// restore adopts only what it can write back: no writer sets a flag, so a
// header that sets one is refused, like one of another version. The hash
// functions, whose cost grows with the depth, are built only after every
// bucket has arrived; Geometry.Read refuses a header of another geometry
// before it allocates the buckets.

const (
	magicCountSketch = 0x574d4353 // "WMCS"
	serializeVersion = 1
)

// MaxBuckets caps depth×width accepted on restore. Without it a corrupt or
// adversarial 28-byte header (depth up to 2^16, width up to 2^30) could
// demand a petabyte-scale allocation before a single bucket byte is read.
// 2^27 buckets = 1 GiB of float64 — far above any configuration the paper
// or this repository uses, far below an OOM.
const MaxBuckets = 1 << 27

// MaxDepth caps the rows accepted on restore, and core.Config caps every
// learner's depth at it, so a process can read back any sketch it writes.
// A hash family costs ~14 KB a row, built once the buckets have arrived:
// without the cap, a 32,796-byte sketch of 4096 rows of one bucket would
// cost 56 MB to restore. It lies far above the paper's configurations
// (depth at most 31).
const MaxDepth = 64

// serializeChunk is the number of float64s encoded per Write (32 KiB).
const serializeChunk = 4096

// headerSize is the encoded header: magic, version, seed, depth, width and
// flags.
const headerSize = 4 + 4 + 8 + 4 + 4 + 4

// EncodedSize is the length of the sketch's serialization.
func (cs *CountSketch) EncodedSize() int { return headerSize + 8*cs.Size() }

// WriteTo serializes the sketch, encoding the buckets a chunk at a time:
// one Write per serializeChunk values, where reflective binary.Write would
// take one per value, with identical bytes. It implements io.WriterTo.
func (cs *CountSketch) WriteTo(w io.Writer) (int64, error) {
	b := cs.appendHeader(make([]byte, 0, 8*serializeChunk))
	var n int64
	for run := cs.buckets; len(run) > 0; {
		if cap(b)-len(b) < 8 {
			m, err := w.Write(b)
			n += int64(m)
			if err != nil {
				return n, err
			}
			b = b[:0]
		}
		k := min(len(run), (cap(b)-len(b))/8)
		for _, v := range run[:k] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		run = run[k:]
	}
	m, err := w.Write(b)
	return n + int64(m), err
}

// AppendBinary appends the sketch's serialization, the bytes WriteTo
// writes, to b. It implements encoding.BinaryAppender.
func (cs *CountSketch) AppendBinary(b []byte) ([]byte, error) {
	if n := cs.EncodedSize(); cap(b)-len(b) < n {
		// One allocation in every build: slices.Grow takes two under the
		// race detector, which keeps its make from folding into the append.
		b = append(make([]byte, 0, len(b)+n), b...)
	}
	b = cs.appendHeader(b)
	for _, v := range cs.buckets {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b, nil
}

// ReadCountSketch deserializes a sketch written by WriteTo, reading exactly
// its bytes from r, on the geometry its header declares. The sketch gets a
// hash family of its own, built once its buckets have arrived.
func ReadCountSketch(r io.Reader) (*CountSketch, error) {
	return readCountSketch(r, nil)
}

// Read deserializes a sketch of this geometry written by WriteTo, reading
// exactly its bytes from r. A header of another depth, width or seed is
// refused before any bucket is allocated, and the sketch shares g's hash
// family.
func (g *Geometry) Read(r io.Reader) (*CountSketch, error) {
	return readCountSketch(r, g)
}

// readCountSketch reads one sketch, of geometry want when it is not nil
// and otherwise of the one its header declares.
func readCountSketch(r io.Reader, want *Geometry) (*CountSketch, error) {
	seed, depth, width, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	if want == nil {
		want = &Geometry{depth: depth, width: width, seed: seed}
	} else if !want.Matches(depth, width, seed) {
		return nil, fmt.Errorf("sketch: geometry %d×%d seed %d, want %d×%d seed %d",
			depth, width, seed, want.depth, want.width, want.seed)
	}
	buckets := make([]float64, depth*width)
	if err := frame.ReadF64s(r, buckets); err != nil {
		return nil, fmt.Errorf("sketch: count-sketch buckets: %w", err)
	}
	return want.wrap(buckets), nil
}

// appendHeader appends the sketch's serialization header to b.
func (cs *CountSketch) appendHeader(b []byte) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, magicCountSketch)
	b = le.AppendUint32(b, serializeVersion)
	b = le.AppendUint64(b, uint64(cs.seed))
	b = le.AppendUint32(b, uint32(cs.depth))
	b = le.AppendUint32(b, uint32(cs.width))
	return le.AppendUint32(b, 0) // flags
}

func readHeader(r io.Reader) (seed int64, depth, width int, err error) {
	var b [headerSize]byte
	if _, err = io.ReadFull(r, b[:]); err != nil {
		return 0, 0, 0, fmt.Errorf("sketch: truncated header: %w", err)
	}
	le := binary.LittleEndian
	magic, version := le.Uint32(b[0:]), le.Uint32(b[4:])
	seed = int64(le.Uint64(b[8:]))
	d32, w32, flags := le.Uint32(b[16:]), le.Uint32(b[20:]), le.Uint32(b[24:])
	if magic != magicCountSketch {
		return 0, 0, 0, fmt.Errorf("sketch: bad magic %#x", magic)
	}
	if version != serializeVersion {
		return 0, 0, 0, fmt.Errorf("sketch: unsupported version %d", version)
	}
	if flags != 0 {
		return 0, 0, 0, fmt.Errorf("sketch: reserved header flags %#x set", flags)
	}
	if d32 == 0 || w32 == 0 || w32 > 1<<30 {
		return 0, 0, 0, fmt.Errorf("sketch: implausible shape %dx%d", d32, w32)
	}
	if d32 > MaxDepth {
		return 0, 0, 0, fmt.Errorf("sketch: depth %d exceeds the limit of %d", d32, MaxDepth)
	}
	if total := uint64(d32) * uint64(w32); total > MaxBuckets {
		return 0, 0, 0, fmt.Errorf("sketch: header demands %d buckets, limit %d", total, uint64(MaxBuckets))
	}
	return seed, int(d32), int(w32), nil
}
