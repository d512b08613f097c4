package core

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// checkpointLoads are the public learner checkpoint loaders, each
// returning what it restored as the io.WriterTo that serializes it back.
var checkpointLoads = []struct {
	name string
	load func(r io.Reader) (io.WriterTo, error)
}{
	{"awm", func(r io.Reader) (io.WriterTo, error) { return LoadAWMSketch(r, nil, nil) }},
	{"sharded", func(r io.Reader) (io.WriterTo, error) {
		return LoadSharded(r, nil, nil, ShardedOptions{SyncEvery: -1})
	}},
}

// FuzzLoadCheckpoint drives LoadAWMSketch and LoadSharded with every
// golden checkpoint and truncated and bit-flipped copies of them: the
// models' and, as a foreign format, the bare Count-Sketch that each model
// embeds. Whatever the bytes, a loader must return an error or a model
// without panicking, and a model it accepts must serialize back to exactly
// the bytes it was given: restore adopts nothing it cannot write again.
//
// `make fuzz-smoke` runs this next to the gossip, sketch, wire and libsvm
// fuzzers; longer runs: go test -fuzz FuzzLoadCheckpoint ./internal/core.
func FuzzLoadCheckpoint(f *testing.F) {
	for _, name := range []string{"awm", "sharded", "countsketch"} {
		blob, err := os.ReadFile(goldenCheckpointPath(name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		// Truncations inside the sharded header, the model header, the
		// heap, the sketch header and the bucket rows.
		for _, cut := range []int{0, 4, 20, 52, 60, 250, 290, len(blob) / 2, len(blob) - 1} {
			if cut < len(blob) {
				f.Add(append([]byte(nil), blob[:cut]...))
			}
		}
		for _, at := range []int{5, 12, 18, 24, 40, 54, 64, 80, 260, len(blob) - 8} {
			if at < len(blob) {
				mut := append([]byte(nil), blob...)
				mut[at] ^= 0xA5
				f.Add(mut)
			}
		}
		f.Add(append(append([]byte(nil), blob...), 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, l := range checkpointLoads {
			m, err := l.load(bytes.NewReader(data))
			if err != nil {
				continue
			}
			if s, ok := m.(*Sharded); ok {
				defer s.Close()
			}
			var out bytes.Buffer
			if _, err := m.WriteTo(&out); err != nil {
				t.Fatalf("%s: accepted checkpoint failed to re-serialize: %v", l.name, err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("%s: accepted checkpoint of %d bytes re-serializes to %d different bytes",
					l.name, len(data), out.Len())
			}
		}
	})
}
