package core

import (
	"fmt"
	"math"

	"wmsketch/internal/hashing"
	"wmsketch/internal/sketch"
)

// Geometry is a learner configuration bound to one hash family: the sketch
// geometry (depth, width, seed and heap size) of a serving process, with
// the behaviour (loss, schedule, λ) its learners train under. Parameter
// mixing averages buckets, which is defined only between sketches that
// share hash functions, so a process serving one model has exactly one
// geometry. Every learner, view and restored sketch built through a
// Geometry shares its family; NewAWMSketch, NewSharded, the package-level
// loaders and a MixOptions literal each build their own. A Geometry is
// immutable and safe for concurrent use; only a plain loader's own empty
// one is filled in, once, from the first header it reads.
type Geometry struct {
	cfg Config // filled
	sk  *sketch.Geometry
}

// NewGeometry binds cfg to the hash family of its depth and seed, built
// once, by the first sketch made or read on it. It panics on a
// configuration the learners cannot run with, as NewAWMSketch does.
func NewGeometry(cfg Config) *Geometry {
	cfg.fill()
	return &Geometry{cfg: cfg, sk: sketch.NewGeometry(cfg.Depth, cfg.Width, cfg.Seed)}
}

// Hashes returns the hash family every sketch built on g shares.
func (g *Geometry) Hashes() *hashing.Family { return g.sk.Hashes() }

// Mix returns the mixing options of g's geometry, bound to its family, so
// that the views mixed with them share it too.
func (g *Geometry) Mix() MixOptions {
	c := &g.cfg
	return MixOptions{Depth: c.Depth, Width: c.Width, Seed: c.Seed, HeapSize: c.HeapSize, sk: g.sk}
}

// check refuses a model header that disagrees with g. Width, depth, seed
// and heap size fix the geometry; λ is the regularization the model was
// trained under, and resuming it under another would change the objective
// without a trace, so it must match bit for bit as well.
func (g *Geometry) check(width, depth, heapSize uint32, lambda float64, seed int64) error {
	c := &g.cfg
	if uint64(width) != uint64(c.Width) || uint64(depth) != uint64(c.Depth) ||
		uint64(heapSize) != uint64(c.HeapSize) || seed != c.Seed ||
		math.Float64bits(lambda) != math.Float64bits(c.Lambda) {
		return fmt.Errorf("core: checkpoint has width %d, depth %d, heap %d, seed %d, lambda %g; "+
			"want width %d, depth %d, heap %d, seed %d, lambda %g",
			width, depth, heapSize, seed, lambda, c.Width, c.Depth, c.HeapSize, c.Seed, c.Lambda)
	}
	return nil
}
