package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"wmsketch/internal/sketch"
	"wmsketch/internal/stream"
)

// Parameter mixing — the paper's structural argument for distributed
// training: Count-Sketches are linear projections, so the weighted average
// of independently trained sketches is exactly the sketch of the weighted
// average of the underlying models. Sharded uses this across cores; the
// cluster subsystem (internal/cluster) uses the same primitive across
// machines, weighting each node's model by its observed example count so a
// node that saw twice the stream contributes twice the mass.

// Snapshot is a consistent, immutable copy of one learner's model state,
// as Algorithm 2 keeps it: the Count-Sketch of the tail, a global scale
// multiplier, the active set, and the number of examples the model has
// observed. Snapshots are the unit of merging everywhere — shard → process
// view, node → cluster view — and must be treated as read-only by every
// holder.
//
// An active weight travels only in Heavy. The sketch is the tail: for an
// active key it holds only the stale mass Algorithm 2 leaves there until
// an eviction writes the weight back. So the model weight of feature i is
// Scale·w for an entry (i, w) of Heavy and √depth·Scale·CS.Estimate(i)
// for any other i. Keeping the lazy ℓ2-decay scale OUT of the buckets
// matters for replication: decay multiplies every nonzero bucket on every
// step, so a scale-folded sketch differs everywhere between any two
// versions and bucket-level deltas degenerate to full snapshots. In raw
// space only gradient-touched buckets change, and the scale travels as one
// float.
type Snapshot struct {
	// Origin identifies the sub-stream this model was trained on (a shard
	// index, a cluster node id). MixSnapshots canonicalizes the summation
	// order by Origin, which is what makes mixing order-independent bit for
	// bit: floating-point addition commutes but does not associate, so a
	// deterministic order is the only way two replicas mixing the same set
	// arrive at identical buckets.
	Origin string
	// CS is the learner's own sketch of the tail, decay not folded.
	CS *sketch.CountSketch
	// Scale is the global decay multiplier; 0 is treated as 1 so that
	// hand-built snapshots of scale-free sketches stay valid.
	Scale float64
	// Heavy holds the heavy weights (a learner's active set), raw like the
	// buckets: the model weight of entry e is Scale·e.Weight. (True-scale
	// weights would change on every decay step, which would make
	// heavy-list deltas dense for the same reason scale-folded buckets
	// would.)
	Heavy []stream.Weighted
	// Steps is the number of examples observed; it is the snapshot's mixing
	// weight.
	Steps int64
	// WeightFactor scales the snapshot's mixing weight multiplicatively
	// (effective weight = Steps·WeightFactor). 0 means unset and is treated
	// as 1, so hand-built snapshots stay valid. The cluster layer uses
	// factors in (0,1) to fade a departed origin out of the merged view
	// (origin GC) instead of letting its frozen example count weigh in
	// forever; a snapshot the caller wants fully excluded should simply not
	// be passed.
	WeightFactor float64
}

// scaleOr1 returns the snapshot's scale with the zero value defaulted.
func (sn *Snapshot) scaleOr1() float64 {
	if sn.Scale == 0 {
		return 1
	}
	return sn.Scale
}

// factorOr1 returns the snapshot's weight factor with the zero value
// defaulted.
func (sn *Snapshot) factorOr1() float64 {
	if sn.WeightFactor == 0 {
		return 1
	}
	return sn.WeightFactor
}

// Snapshotter is implemented by learners that can export their model state
// for merging: AWMSketch, and Concurrent and Sharded, which serve it.
// ModelSnapshot's Heavy list is a fresh slice the caller owns and may
// reorder; its sketch may be shared and stays read-only. Steps is the
// example count the next ModelSnapshot would report at least, so a caller
// can tell the model has not moved without paying for a snapshot.
type Snapshotter interface {
	ModelSnapshot() (Snapshot, error)
	Steps() int64
}

// MixOptions fixes the sketch geometry a mix must agree on.
type MixOptions struct {
	Depth, Width int
	Seed         int64
	// HeapSize caps the merged top-weight list.
	HeapSize int
	// sk is the geometry Geometry.Mix binds the options to, whose hash
	// family every mixed sketch shares; a literal leaves it nil.
	sk *sketch.Geometry
}

// Sketch returns the Count-Sketch geometry o fixes: the one Geometry.Mix
// bound o to, or for a literal a new one with a hash family of its own.
func (o MixOptions) Sketch() *sketch.Geometry {
	return o.sketchLike(nil)
}

// sketchLike returns the geometry o fixes as Sketch does, except that a
// literal takes the geometry of cs, sharing its hash family, when cs has
// o's depth, width and seed.
func (o MixOptions) sketchLike(cs *sketch.CountSketch) *sketch.Geometry {
	switch {
	case o.sk != nil && o.sk.Matches(o.Depth, o.Width, o.Seed):
		return o.sk
	case cs != nil && cs.Depth() == o.Depth && cs.Width() == o.Width && cs.Seed() == o.Seed:
		return cs.Geometry()
	}
	return sketch.NewGeometry(o.Depth, o.Width, o.Seed)
}

// Mixed is an immutable model produced by parameter mixing. All methods
// are read-only and safe for concurrent use; Sharded serves queries from
// one, and cluster nodes serve queries from one mixed over every known
// node's snapshot.
type Mixed struct {
	cs    *sketch.CountSketch
	sqrtS float64
	top   []stream.Weighted // descending |weight|, ≤ HeapSize entries
	// exact holds mixed heavy-key weights, preferred over the
	// (collision-noisier) merged-sketch median query when present.
	exact map[uint32]float64
}

// EmptyMixed returns the zero model of the given geometry: every estimate
// is 0. It is the well-defined answer before any snapshot exists.
func EmptyMixed(opt MixOptions) *Mixed {
	return &Mixed{
		cs:    opt.Sketch().New(),
		sqrtS: math.Sqrt(float64(opt.Depth)),
	}
}

// MixSnapshots parameter-mixes model snapshots, weighting each by its
// example count: the result estimates the model a single learner would
// have reached on the concatenation of the sub-streams (Section 9's
// distributed extension). Snapshots with zero steps (or a nil sketch)
// contribute nothing and are skipped; mixing none yields the zero model.
//
// The summation order is canonicalized by Snapshot.Origin, so the result
// is bit-wise independent of the order snapshots are passed in. When all
// live snapshots report identical step counts the weights cancel and the
// arithmetic reduces to the plain average (sum, then one scale by 1/K),
// bit-identical to unweighted merging.
//
// Inputs are never mutated; the mixed sketch is freshly allocated.
func MixSnapshots(snaps []Snapshot, opt MixOptions) (*Mixed, error) {
	live := make([]Snapshot, 0, len(snaps))
	for _, sn := range snaps {
		if sn.Steps > 0 && sn.CS != nil && sn.factorOr1() > 0 {
			live = append(live, sn)
		}
	}
	sort.SliceStable(live, func(i, j int) bool { return live[i].Origin < live[j].Origin })

	sqrtS := math.Sqrt(float64(opt.Depth))
	if len(live) == 0 {
		return EmptyMixed(opt), nil
	}

	// Weights: example counts scaled by the per-snapshot factor, except that
	// the all-equal case uses 1 so the equal-weight mix stays bit-identical
	// to the historical unweighted average (w·x/(K·w) and x/K differ in the
	// last ulp).
	effective := func(sn Snapshot) float64 {
		return float64(sn.Steps) * sn.factorOr1()
	}
	equal := true
	for _, sn := range live[1:] {
		if effective(sn) != effective(live[0]) {
			equal = false
			break
		}
	}
	weight := func(sn Snapshot) float64 {
		if equal {
			return 1
		}
		return effective(sn)
	}
	var totalW float64
	for _, sn := range live {
		totalW += weight(sn)
	}

	// Mixed heavy-candidate weights, computed against the per-snapshot
	// folded sketches: for each candidate key, the weighted average over
	// snapshots of the snapshot's exact heavy weight where present and its
	// sketch estimate where not. The keys come from a merge of the heavy
	// lists in index order, so no lookup table is built; a list out of
	// order is merged from a sorted copy, and of a key listed twice the
	// later weight counts. A first pass counts the keys, so that the view's
	// top list and heavy weights are allocated once, at their final size.
	lists := make([][]stream.Weighted, len(live))
	for i, sn := range live {
		lists[i] = sn.Heavy
		if !slices.IsSortedFunc(sn.Heavy, byIndex) {
			lists[i] = slices.Clone(sn.Heavy)
			stream.SortByIndex(lists[i])
		}
	}
	next := make([]int, len(live))
	// least returns the least key at the lists' cursors.
	least := func() (k uint32, found bool) {
		for i, l := range lists {
			if j := next[i]; j < len(l) && (!found || l[j].Index < k) {
				k, found = l[j].Index, true
			}
		}
		return k, found
	}
	// pass moves list i's cursor past k and reports whether it listed k.
	pass := func(i int, k uint32) bool {
		l, j := lists[i], next[i]
		for next[i] < len(l) && l[next[i]].Index == k {
			next[i]++
		}
		return next[i] > j
	}
	keys := 0
	for k, ok := least(); ok; k, ok = least() {
		keys++
		for i := range lists {
			pass(i, k)
		}
	}
	clear(next)
	top := make([]stream.Weighted, 0, keys)
	exact := make(map[uint32]float64, keys)
	for k, ok := least(); ok; k, ok = least() {
		sum := 0.0
		for i, other := range live {
			var v float64
			if pass(i, k) {
				v = other.scaleOr1() * lists[i][next[i]-1].Weight
			} else {
				v = sqrtS * (other.scaleOr1() * other.CS.Estimate(k))
			}
			sum += weight(other) * v
		}
		w := sum / totalW
		top = append(top, stream.Weighted{Index: k, Weight: w})
		exact[k] = w
	}

	// Every live sketch of the geometry shares one hash family; a literal's
	// own family would cost a build per mix.
	merged := opt.sketchLike(live[0].CS).New()
	for _, sn := range live {
		// The contribution coefficient folds the snapshot's decay scale
		// into the mixing weight (model = Scale·CS); the normalizer stays
		// Σweights, since the scale is part of the model, not its mass.
		if err := merged.AddScaled(sn.CS, weight(sn)*sn.scaleOr1()); err != nil {
			return nil, fmt.Errorf("core: mix %q: %w", sn.Origin, err)
		}
	}
	if totalW != 1 {
		merged.Scale(1 / totalW)
	}

	stream.SortWeighted(top)
	if opt.HeapSize > 0 && len(top) > opt.HeapSize {
		top = top[:opt.HeapSize]
	}
	return &Mixed{cs: merged, sqrtS: sqrtS, top: top, exact: exact}, nil
}

// byIndex orders heavy entries by ascending index.
func byIndex(a, b stream.Weighted) int { return cmp.Compare(a.Index, b.Index) }

// Estimate returns the mixed model's weight estimate for feature i.
func (m *Mixed) Estimate(i uint32) float64 {
	if w, ok := m.exact[i]; ok {
		return w
	}
	return m.sqrtS * m.cs.Estimate(i)
}

// Predict evaluates the margin wᵀx under the mixed model: mixed heavy
// weights where present, as Estimate reads them, and the compressed inner
// product over the merged sketch for the rest (Algorithm 2's τ). The
// merged sketch mixes the snapshots' tails, so it holds no heavy weight.
func (m *Mixed) Predict(x stream.Vector) float64 {
	dot := 0.0
	for _, f := range x {
		if w, ok := m.exact[f.Index]; ok {
			dot += w * f.Value
		} else {
			dot += f.Value * m.cs.SumSigned(f.Index) / m.sqrtS
		}
	}
	return dot
}

// TopK returns the k heaviest features of the mixed model.
func (m *Mixed) TopK(k int) []stream.Weighted {
	if k > len(m.top) {
		k = len(m.top)
	}
	out := make([]stream.Weighted, k)
	copy(out, m.top[:k])
	return out
}

// Sketch exposes the merged Count-Sketch read-only.
func (m *Mixed) Sketch() *sketch.CountSketch { return m.cs }

// ---- Snapshotter implementations ----

// ModelSnapshot implements Snapshotter: a deep copy of the sketch, which
// keeps training, with the current decay scale, so that version-to-version
// deltas stay sparse. The heavy list holds the active set's unscaled
// weights in heap order, read from the heap in place.
func (a *AWMSketch) ModelSnapshot() (Snapshot, error) {
	return a.snapshot(a.cs.Clone()), nil
}

// snapshot returns a's snapshot over cs, a's sketch or a copy of it.
func (a *AWMSketch) snapshot(cs *sketch.CountSketch) Snapshot {
	heavy := make([]stream.Weighted, 0, a.active.Len())
	for e := range a.active.All() {
		heavy = append(heavy, stream.Weighted{Index: e.Key, Weight: e.Weight})
	}
	return Snapshot{CS: cs, Scale: a.scale, Heavy: heavy, Steps: a.t}
}

// ModelSnapshot refreshes the merged view (reflecting every example routed
// before the call) and returns it as a snapshot: the node-level model the
// cluster layer replicates. The returned sketch is the live immutable view
// and must not be mutated. The view's sketch mixes the shards' tails, so
// the heavy list carries every mixed heavy weight the view holds, the
// union of the shards' active sets, not only its top HeapSize: a key left
// out would reach a peer with its tail estimate alone. Past maxHeapSize
// keys, which no gossip decoder takes, the lightest are left out.
func (s *Sharded) ModelSnapshot() (Snapshot, error) {
	// Capture the routed-update counter BEFORE the sync: the refreshed view
	// reflects at least these examples, so the snapshot's step count can
	// never claim examples its state lacks. (The opposite order would let a
	// concurrently-routed tail inflate the version and permanently suppress
	// the later publish that actually carries those examples.)
	steps := s.pending.Load()
	if !s.closed.Load() {
		s.Sync()
	}
	v := s.currentView()
	// The merged view is already at true scale. Its buckets shift a little
	// on every re-merge, so sharded-backed cluster nodes ship full frames
	// more often than single-model ones; see CLUSTER.md.
	heavy := make([]stream.Weighted, 0, len(v.exact))
	for i, w := range v.exact {
		heavy = append(heavy, stream.Weighted{Index: i, Weight: w})
	}
	if len(heavy) > maxHeapSize {
		stream.SortWeighted(heavy)
		heavy = heavy[:maxHeapSize]
	}
	return Snapshot{CS: v.cs, Scale: 1, Heavy: heavy, Steps: steps}, nil
}

var (
	_ Snapshotter = (*AWMSketch)(nil)
	_ Snapshotter = (*Concurrent)(nil)
	_ Snapshotter = (*Sharded)(nil)
)
