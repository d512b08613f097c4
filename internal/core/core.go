// Package core implements the paper's primary contribution: the
// Weight-Median Sketch (WM-Sketch, Algorithm 1) and the Active-Set
// Weight-Median Sketch (AWM-Sketch, Algorithm 2) for learning compressed
// linear classifiers over data streams with approximate recovery of the
// most heavily-weighted features.
//
// Both sketches maintain a Count-Sketch projection z of the weight vector
// of a linear classifier and update it by online gradient descent on the
// compressed objective
//
//	L̂ₜ(z) = ℓ(yₜ·zᵀRxₜ) + (λ/2)‖z‖²₂,
//
// where R = A/√s is the Count-Sketch matrix scaled so it has the
// Johnson-Lindenstrauss property (Kane & Nelson 2014). Weight estimates are
// recovered by the standard Count-Sketch median query scaled by √s.
package core

import (
	"fmt"

	"wmsketch/internal/linear"
	"wmsketch/internal/sketch"
	"wmsketch/internal/stream"
)

// Config configures a WM-Sketch or AWM-Sketch.
type Config struct {
	// Width is the number of buckets per row (k/s in the paper).
	Width int
	// Depth is the number of rows s. The AWM-Sketch configuration that
	// performed uniformly best in the paper uses Depth=1.
	Depth int
	// HeapSize is the capacity of the top-weight heap: the passive
	// maintenance heap for the WM-Sketch, the active set for the AWM-Sketch.
	HeapSize int
	// Loss is the margin loss; nil selects logistic loss.
	Loss linear.Loss
	// Schedule is the learning-rate schedule; nil selects η₀=0.1, ηₜ=η₀/√t.
	Schedule linear.Schedule
	// Lambda is the ℓ2-regularization strength λ.
	Lambda float64
	// Seed drives the sketch's hash functions.
	Seed int64
	// NoScaleTrick disables the lazy global-scale regularization
	// optimization and applies weight decay to every bucket explicitly.
	// Exposed for the ablation study; results are identical up to float
	// rounding but updates cost O(k + s·nnz(x)) instead of O(s·nnz(x)).
	NoScaleTrick bool
}

func (c *Config) fill() {
	if c.Loss == nil {
		c.Loss = linear.Logistic{}
	}
	if c.Schedule == nil {
		c.Schedule = linear.DefaultSchedule()
	}
	if err := c.Validate(); err != nil {
		panic(err.Error())
	}
}

// maxHeapSize bounds a configuration's heap. A plain checkpoint loader
// takes its configuration from the header, and this bound, with
// sketch.MaxDepth, bounds what a header of a few bytes makes it allocate
// before refusing what follows: a heap index of 64 B a slot, and a hash
// family of ~14 KB a row. Both lie far above the paper's configurations
// (an active set of at most 2048, depth at most 31), and Validate applies
// them to every learner, so that a process can always restore what it
// wrote.
const maxHeapSize = 1 << 16

// Validate reports a configuration the learners cannot run with. Every
// constructor panics on it (fill), checkpoint restore returns it, and a
// server refuses it before it builds anything.
func (c *Config) Validate() error {
	switch {
	case c.Width <= 0:
		return fmt.Errorf("core: width must be positive, got %d", c.Width)
	case c.Depth <= 0 || c.Depth > sketch.MaxDepth:
		return fmt.Errorf("core: depth must be in [1, %d], got %d", sketch.MaxDepth, c.Depth)
	case c.Width > sketch.MaxBuckets/c.Depth:
		return fmt.Errorf("core: %d×%d buckets exceed the checkpoint limit of %d", c.Depth, c.Width, sketch.MaxBuckets)
	case c.HeapSize <= 0 || c.HeapSize > maxHeapSize:
		return fmt.Errorf("core: heap size must be in [1, %d], got %d", maxHeapSize, c.HeapSize)
	case c.Lambda < 0:
		return fmt.Errorf("core: negative lambda")
	}
	if cs, ok := c.Schedule.(linear.Constant); ok && cs.Eta0*c.Lambda >= 1 {
		return fmt.Errorf("core: constant schedule with Eta0·Lambda = %g ≥ 1: "+
			"the decay factor 1−ηλ is non-positive on every step, which zeroes "+
			"or sign-flips the model; lower Eta0 or Lambda", cs.Eta0*c.Lambda)
	}
	return nil
}

// decayFactor returns the per-step ℓ2 decay multiplier 1−ηλ, clamped at 0.
// Without the clamp a transiently large learning rate (e.g. the first steps
// of an aggressive InvSqrt schedule) makes the factor negative: the lazy
// global scale then goes negative and the next renormalize sign-flips and
// amplifies every bucket, silently corrupting the model. A factor of 0 is
// the correct saturation: full decay, i.e. the regularizer pulls the model
// exactly to zero before the gradient step.
func decayFactor(eta, lambda float64) float64 {
	d := 1 - eta*lambda
	if d < 0 {
		return 0
	}
	return d
}

// minScale triggers folding the global scale into the buckets to avoid
// floating-point underflow on long streams.
const minScale = 1e-9

// sgn returns the float ±1 for a ±1 integer label and panics otherwise:
// silent acceptance of 0/1 labels would corrupt gradients.
func sgn(y int) float64 {
	switch y {
	case 1:
		return 1
	case -1:
		return -1
	default:
		panic(fmt.Sprintf("core: label must be ±1, got %d", y))
	}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// assertLearner statically checks both sketches satisfy stream.Learner.
var (
	_ stream.Learner = (*WMSketch)(nil)
	_ stream.Learner = (*AWMSketch)(nil)
)
