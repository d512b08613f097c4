package cluster

import (
	"context"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wmsketch/internal/core"
	"wmsketch/internal/obs"
	"wmsketch/internal/sketch"
	"wmsketch/internal/stream"
	"wmsketch/internal/trace"
)

// Config configures a cluster Node.
type Config struct {
	// Self is this node's globally unique id (conventionally its advertised
	// address). It names the node's origin in every peer's state table; two
	// nodes sharing an id silently shadow each other.
	Self string
	// Peers are the base URLs (http://host:port) of the nodes to gossip
	// with. The peer graph must be connected for full convergence; it does
	// not need to be complete — state relays transitively.
	Peers []string
	// Mix is the sketch geometry every node in the cluster must share.
	Mix core.MixOptions
	// Local exports the local learner's model for publication.
	Local core.Snapshotter
	// Interval is the gossip cadence. 0 selects 2s; negative disables the
	// background loop (rounds then run only via GossipOnce, which tests and
	// the simulator drive directly).
	Interval time.Duration
	// HistoryDepth is how many recent versions of each origin's snapshot
	// are retained as delta bases. A peer whose acked version has aged out
	// of the window (or that was never seen) falls back to a full-snapshot
	// sync. 0 selects 8.
	HistoryDepth int
	// AuthToken, when set, is sent as a bearer token on cluster push
	// requests (the receiving node's -auth-token must match).
	AuthToken string
	// RPCTimeout bounds one peer round's RPCs: pull, the bounded full
	// re-pull, and the push-back share a single context deadline, so a
	// stalled peer costs at most this much wall time per round. 0 selects
	// 10s; negative disables the deadline (the HTTP transport's 15s client
	// timeout still applies per request).
	RPCTimeout time.Duration
	// Fanout is how many peers each round samples. 0 selects
	// ⌈log₂(N+1)⌉ with a floor of 3 (so clusters of ≤3 peers keep full
	// sweeps); negative forces a full sweep of every peer.
	Fanout int
	// SuspectAfter is the consecutive-failure count that marks a peer
	// suspect. 0 selects 3.
	SuspectAfter int
	// DeadAfter is how long a failing peer goes without a successful round
	// before it is declared dead and leaves the sampling pool (it is still
	// probed occasionally so a rejoin is noticed). 0 selects
	// max(30s, 10×Interval).
	DeadAfter time.Duration
	// OriginGCAfter is the idle age (no version advance) past which an
	// origin's mix weight starts decaying toward zero, so departed nodes
	// fade from the served model instead of freezing into it. 0 selects
	// 15m; negative disables origin GC.
	OriginGCAfter time.Duration
	// OriginGCDecay is the width of the linear decay ramp from full weight
	// to tombstoned. 0 selects OriginGCAfter/2.
	OriginGCDecay time.Duration
	// Seed drives peer sampling and dead-peer probing. 0 derives a seed
	// from Self, so distinct nodes sample distinct sequences and a fixed
	// (Self, Seed) pair replays deterministically.
	Seed int64
	// Clock is the time source; nil selects WallClock. Tests and the
	// discrete-event simulator inject a VirtualClock here, which is what
	// makes membership timing (backoff, suspect/dead promotion, origin GC)
	// and the gossip ticker drivable without wall-clock sleeps.
	Clock Clock
	// Transport carries gossip RPCs; nil selects HTTP with a 15s client
	// timeout (a coarse backstop — per-round deadlines come from
	// RPCTimeout) and AuthToken on pushes.
	Transport Transport
	// Registry receives the node's gossip instrumentation (see metrics.go
	// for the family catalog). nil gives the node a private registry,
	// still readable via Metrics() — Status() is sourced from it either
	// way.
	Registry *obs.Registry
	// Logger receives gossip diagnostics; nil discards them. The node logs
	// through it with a node_id attribute and passes span contexts, so a
	// handler wrapped in trace.NewLogHandler joins gossip log lines to
	// their round traces.
	Logger *slog.Logger
	// Tracer spans gossip rounds, peer reconciliations, and frame applies,
	// and feeds the causal-lineage machinery. Nil disables tracing (every
	// span call is a no-op and lineage entries carry a zero trace ID). The
	// simulator injects a virtual-clock, fixed-seed tracer here.
	Tracer *trace.Tracer
}

func (c *Config) fill() error {
	if c.Self == "" {
		return fmt.Errorf("cluster: Self id must be set")
	}
	if len(c.Self) > maxOriginLen {
		return fmt.Errorf("cluster: Self id longer than %d bytes", maxOriginLen)
	}
	if c.Local == nil {
		return fmt.Errorf("cluster: Local snapshotter must be set")
	}
	if c.Mix.Depth <= 0 || c.Mix.Width <= 0 {
		return fmt.Errorf("cluster: Mix geometry must be set")
	}
	if c.Interval == 0 {
		c.Interval = 2 * time.Second
	}
	if c.HistoryDepth <= 0 {
		c.HistoryDepth = 8
	}
	if c.RPCTimeout == 0 {
		c.RPCTimeout = 10 * time.Second
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3
	}
	if c.DeadAfter == 0 {
		c.DeadAfter = 10 * c.Interval
		if c.DeadAfter < 30*time.Second {
			c.DeadAfter = 30 * time.Second
		}
	}
	if c.OriginGCAfter == 0 {
		c.OriginGCAfter = 15 * time.Minute
	}
	if c.OriginGCDecay <= 0 {
		c.OriginGCDecay = c.OriginGCAfter / 2
	}
	if c.Seed == 0 {
		h := fnv.New64a()
		_, _ = h.Write([]byte(c.Self))
		c.Seed = int64(h.Sum64())
	}
	if c.Clock == nil {
		c.Clock = WallClock
	}
	if c.Transport == nil {
		c.Transport = httpTransport{client: &http.Client{Timeout: 15 * time.Second}, authToken: c.AuthToken}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	c.Logger = c.Logger.With(slog.String("node_id", c.Self))
	return nil
}

// versioned is one retained snapshot version, a delta base candidate.
type versioned struct {
	version int64
	snap    core.Snapshot
}

// originState is everything known about one node's model: the current
// snapshot plus a bounded history of recent versions kept as delta bases,
// and the GC bookkeeping that ages it out of the mix once it stops
// advancing.
type originState struct {
	id      string
	version int64
	snap    core.Snapshot
	history []versioned // ascending version, ≤ HistoryDepth entries, includes current
	// lastAdvance is when this node last adopted a NEW version of the
	// origin (local observation time — frames carry no timestamps).
	lastAdvance time.Time
	// gone marks a tombstone: the snapshot is freed and the origin mixes at
	// zero weight, but the version is retained so peers cannot gossip the
	// dead state back. A genuinely newer version revives it.
	gone bool
	// factorQ is the quantized GC factor at the last view rebuild, used to
	// re-dirty the view only when the decay ramp has moved perceptibly.
	factorQ uint8
	// built is the frame last built for the current version, against the
	// peer-acked version builtBase. Peers that acked the same base get it
	// again instead of a fresh diff; a new version or a tombstone drops it.
	built     *Frame
	builtBase int64
}

func (o *originState) baseFor(version int64) (core.Snapshot, bool) {
	for _, v := range o.history {
		if v.version == version {
			return v.snap, true
		}
	}
	return core.Snapshot{}, false
}

func (o *originState) adopt(version int64, snap core.Snapshot, depth int, now time.Time) {
	o.version = version
	o.snap = snap
	o.lastAdvance = now
	o.gone = false
	o.built = nil
	o.history = append(o.history, versioned{version: version, snap: snap})
	if len(o.history) > depth {
		o.history = o.history[len(o.history)-depth:]
	}
}

// Node is one cluster member: the per-origin state table, the merged
// serving view, and the gossip machinery. All methods are safe for
// concurrent use.
type Node struct {
	cfg Config

	mu      sync.Mutex              // guards origins and view rebuild
	origins map[string]*originState // guarded by mu
	view    atomic.Pointer[core.Mixed]
	// viewDirty marks the served view stale; View() rebuilds lazily, so a
	// burst of applied frames (or a 100-node simulator round) costs one
	// re-mix at the next query instead of one per frame batch.
	viewDirty atomic.Bool

	peers []*peerState

	// rng drives peer sampling and dead-peer probing, seeded from
	// cfg.Seed for deterministic replay; rmu serializes access.
	rmu sync.Mutex
	rng *rand.Rand // guarded by rmu

	stop     chan struct{}
	wg       sync.WaitGroup
	startOne sync.Once
	stopOne  sync.Once

	// met holds the pre-registered aggregate instruments (per-peer
	// counters live on peerState); Status() and /metrics both read it.
	met *nodeMetrics

	// Causal-lineage bookkeeping (see DrainLineage): every applied frame
	// records which trace carried it, and the simulator checks each entry
	// against the set of round traces actually minted.
	lmu            sync.Mutex
	lineage        []LineageEntry // guarded by lmu
	lineageDropped int64          // guarded by lmu
	lastRound      trace.TraceID  // guarded by lmu
}

// maxLineageEntries bounds the per-node lineage ring between drains. The
// simulator drains every round; a node applying more frames than this
// between drains records the overflow in DrainLineage's dropped count (the
// lineage gate fails on any drop — silence would hide missing evidence).
const maxLineageEntries = 8192

// LineageEntry is the provenance record of one applied frame: which
// origin's state advanced to which version, and the trace of the gossip
// round that delivered it. A zero Trace means the frame arrived outside
// any traced round — exactly what the causal-lineage gate exists to catch.
type LineageEntry struct {
	Origin  string
	Version int64
	Trace   trace.TraceID
}

// appendLineage records one applied frame's provenance.
func (n *Node) appendLineage(origin string, version int64, tid trace.TraceID) {
	n.lmu.Lock()
	defer n.lmu.Unlock()
	if len(n.lineage) >= maxLineageEntries {
		n.lineageDropped++
		return
	}
	n.lineage = append(n.lineage, LineageEntry{Origin: origin, Version: version, Trace: tid})
}

// DrainLineage returns and clears the applied-frame provenance recorded
// since the last drain, plus how many entries overflowed the ring (always
// zero unless the caller drains too rarely).
func (n *Node) DrainLineage() ([]LineageEntry, int64) {
	n.lmu.Lock()
	defer n.lmu.Unlock()
	out := n.lineage
	dropped := n.lineageDropped
	n.lineage = nil
	n.lineageDropped = 0
	return out, dropped
}

// LastRoundTrace reports the trace ID minted by this node's most recent
// GossipOnce (zero before the first round or without a tracer).
func (n *Node) LastRoundTrace() trace.TraceID {
	n.lmu.Lock()
	defer n.lmu.Unlock()
	return n.lastRound
}

func (n *Node) setLastRoundTrace(tid trace.TraceID) {
	n.lmu.Lock()
	n.lastRound = tid
	n.lmu.Unlock()
}

// NewNode validates cfg and assembles a node. The gossip loop starts on
// Start; state exchange via ApplyFrames/BuildFrames works immediately.
func NewNode(cfg Config) (*Node, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	n := &Node{
		cfg:     cfg,
		origins: make(map[string]*originState),
		stop:    make(chan struct{}),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		met:     newNodeMetrics(cfg.Registry),
	}
	now := cfg.Clock.Now()
	for _, u := range cfg.Peers {
		// lastOK starts at boot time so a peer that never answers is
		// promoted dead by the DeadAfter clock, not instantly at start.
		n.peers = append(n.peers, &peerState{url: u, lastOK: now})
	}
	n.view.Store(core.EmptyMixed(cfg.Mix))
	return n, nil
}

// Self returns the node's id.
func (n *Node) Self() string { return n.cfg.Self }

// View returns the current merged model over every known origin (self
// included), weighted by example count and faded by origin-GC age. The
// view rebuilds lazily on first access after any state change.
func (n *Node) View() *core.Mixed {
	if n.viewDirty.Load() {
		n.mu.Lock()
		if n.viewDirty.Load() {
			n.rebuildViewLocked()
		}
		n.mu.Unlock()
	}
	return n.view.Load()
}

// PublishLocal snapshots the local learner and, when it has progressed,
// installs it as this origin's newest version. Returns the current version
// and whether a new one was published. A learner that has not moved since
// the last publish costs one Steps call, not a snapshot.
func (n *Node) PublishLocal() (int64, bool, error) {
	// Steps and ModelSnapshot run outside n.mu, so the learner's own lock
	// (the server's backend lock) never nests inside it.
	if v, moved := n.localMoved(n.cfg.Local.Steps()); !moved {
		return v, false, nil
	}
	sn, err := n.cfg.Local.ModelSnapshot()
	if err != nil {
		return 0, false, fmt.Errorf("cluster: local snapshot: %w", err)
	}
	sn.Origin = n.cfg.Self

	n.mu.Lock()
	defer n.mu.Unlock()
	self := n.selfLocked()
	// The version IS the example count: monotonic while the process lives,
	// and it resumes rather than regresses after a checkpoint restore.
	if sn.Steps <= self.version {
		return self.version, false, nil
	}
	// Canonical heavy order so identical states produce identical frames.
	// The copy keeps the learner's slice (a sharded view's live top list)
	// untouched.
	sn.Heavy = append([]stream.Weighted(nil), sn.Heavy...)
	stream.SortWeighted(sn.Heavy)
	self.adopt(sn.Steps, sn, n.cfg.HistoryDepth, n.cfg.Clock.Now())
	n.viewDirty.Store(true)
	return self.version, true, nil
}

// localMoved returns this node's published version and whether a learner
// at steps examples is past it.
func (n *Node) localMoved(steps int64) (int64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	v := n.selfLocked().version
	return v, steps > v
}

// selfLocked returns this node's own origin entry, creating it at version 0
// on first use. Caller holds n.mu.
func (n *Node) selfLocked() *originState {
	self := n.origins[n.cfg.Self]
	if self == nil {
		self = &originState{id: n.cfg.Self}
		n.origins[n.cfg.Self] = self
	}
	return self
}

// Digest returns origin → version for every origin this node knows.
func (n *Node) Digest() map[string]int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	d := make(map[string]int64, len(n.origins))
	for id, o := range n.origins {
		d[id] = o.version
	}
	return d
}

// BuildFrames assembles the frames a peer with the given digest is
// missing: for each origin where our version is newer, a delta frame when
// the peer's acked version is still in our history window (and the diff is
// actually smaller than a full snapshot), otherwise a full frame. When
// includeDigest is set the stream leads with our own digest so the peer
// can push back what we lack.
func (n *Node) BuildFrames(theirs map[string]int64, includeDigest bool) []Frame {
	n.mu.Lock()
	defer n.mu.Unlock()
	var frames []Frame
	if includeDigest {
		d := make(map[string]int64, len(n.origins))
		for id, o := range n.origins {
			d[id] = o.version
		}
		frames = append(frames, Frame{Kind: kindDigest, Digest: d})
	}
	ids := make([]string, 0, len(n.origins))
	for id := range n.origins {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		o := n.origins[id]
		// Tombstoned origins have no snapshot to serve; the digest still
		// carries their version so peers do not push the dead state back.
		if o.gone {
			continue
		}
		acked := theirs[id]
		if o.version <= acked {
			continue
		}
		frames = append(frames, n.frameForLocked(o, acked))
	}
	return frames
}

// frameForLocked returns o's frame for a peer that acked version acked,
// reusing the one last built for that base. The frame is shared: its
// slices must not be written. Caller holds n.mu.
func (n *Node) frameForLocked(o *originState, acked int64) Frame {
	if o.built == nil || o.builtBase != acked {
		f := buildFrame(o, acked)
		o.built, o.builtBase = &f, acked
	}
	if o.built.Kind == kindDelta {
		n.met.builtDelta.Inc()
	} else {
		n.met.builtFull.Inc()
	}
	return *o.built
}

// buildFrame picks delta vs full for one origin.
func buildFrame(o *originState, acked int64) Frame {
	if acked > 0 {
		if base, ok := o.baseFor(acked); ok {
			changes, err := sketch.Diff(base.CS, o.snap.CS)
			if err == nil {
				removed, upserts := diffHeavy(base.Heavy, o.snap.Heavy)
				// A delta entry costs ~1.5× a raw bucket (varint gap +
				// 8-byte value vs 8 bytes in the dense dump); past ~2/3 of
				// the buckets changed, the full snapshot is the smaller
				// frame.
				if 3*len(changes) <= 2*o.snap.CS.Size() {
					return Frame{
						Kind: kindDelta, Origin: o.id, Version: o.version, Base: acked,
						Scale:   o.snap.Scale,
						Changes: changes, HeavyRemoved: removed, HeavyUpserts: upserts,
					}
				}
			}
		}
	}
	return FullFrame(o.snap)
}

// ApplyResult reports what one ApplyFrames call did.
type ApplyResult struct {
	// TheirDigest is the digest frame carried in the stream, if any.
	TheirDigest map[string]int64
	// Applied counts adopted versions; Stale counts frames at or below the
	// version already held; Rejected counts frames that failed validation.
	Applied, Stale, Rejected int
	// NeedFull lists origins whose delta base we did not have: the caller
	// should re-request them with a zeroed digest entry to force a full.
	NeedFull []string
	// Changed reports whether the merged view was rebuilt.
	Changed bool
}

// ApplyFrames ingests a frame stream with no trace context. Use
// ApplyFramesCtx when the stream arrived inside a traced exchange so the
// apply links into the sender's round.
func (n *Node) ApplyFrames(frames []Frame) ApplyResult {
	return n.ApplyFramesCtx(context.Background(), frames)
}

// ApplyFramesCtx ingests a frame stream from a peer: full frames replace an
// origin's snapshot when newer, delta frames reconstruct the new version
// from the acked base, and everything is validated (geometry, finiteness,
// bounds) before it can touch the state table. A frame for this node's own
// origin is stale when it is no newer than what the node published (a peer
// answering a digest that went stale during its round echoes it back) and
// rejected when it claims a newer version — each node is authoritative for
// itself.
//
// The ctx carries the delivery's trace (remote-continued from the sender's
// gossip round when the stream header had an annotation); every adopted
// version is recorded in the lineage ring under that trace ID, which is how
// the simulator proves each applied frame descends from a real round.
func (n *Node) ApplyFramesCtx(ctx context.Context, frames []Frame) ApplyResult {
	ctx, span := n.cfg.Tracer.StartSpan(ctx, "gossip.apply")
	defer span.Finish()
	tid := trace.SpanContextOf(ctx).TraceID
	var res ApplyResult
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := range frames {
		f := &frames[i]
		switch f.Kind {
		case kindDigest:
			res.TheirDigest = f.Digest
			continue
		case kindFull, kindDelta:
		default:
			res.Rejected++
			n.met.rejectedFrames.Inc()
			continue
		}
		o := n.origins[f.Origin]
		if o != nil && f.Version <= o.version {
			res.Stale++
			n.met.staleDropped.Inc()
			continue
		}
		if f.Origin == n.cfg.Self {
			res.Rejected++
			n.met.rejectedFrames.Inc()
			n.cfg.Logger.LogAttrs(ctx, slog.LevelWarn,
				"peer sent a newer frame for our own origin; dropped",
				slog.String("origin", f.Origin),
				slog.Int64("version", f.Version))
			continue
		}
		var snap core.Snapshot
		var err error
		switch f.Kind {
		case kindFull:
			snap, err = n.snapshotFromFullLocked(f)
			if err == nil {
				n.met.appliedFull.Inc()
			}
		case kindDelta:
			if o == nil {
				res.NeedFull = append(res.NeedFull, f.Origin)
				continue
			}
			base, ok := o.baseFor(f.Base)
			if !ok {
				res.NeedFull = append(res.NeedFull, f.Origin)
				continue
			}
			snap, err = applyDelta(base, f)
			if err == nil {
				n.met.appliedDelta.Inc()
			}
		}
		if err != nil {
			res.Rejected++
			n.met.rejectedFrames.Inc()
			n.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "dropping frame",
				slog.String("origin", f.Origin),
				slog.Int64("version", f.Version),
				slog.String("error", err.Error()))
			continue
		}
		if o == nil {
			o = &originState{id: f.Origin}
			n.origins[f.Origin] = o
		}
		o.adopt(f.Version, snap, n.cfg.HistoryDepth, n.cfg.Clock.Now())
		n.appendLineage(f.Origin, f.Version, tid)
		res.Applied++
	}
	if res.Applied > 0 {
		n.viewDirty.Store(true)
		res.Changed = true
	}
	return res
}

func (n *Node) snapshotFromFullLocked(f *Frame) (core.Snapshot, error) {
	if f.CS == nil {
		return core.Snapshot{}, fmt.Errorf("full frame without a sketch")
	}
	if f.CS.Depth() != n.cfg.Mix.Depth || f.CS.Width() != n.cfg.Mix.Width {
		return core.Snapshot{}, fmt.Errorf("geometry %dx%d, cluster runs %dx%d",
			f.CS.Depth(), f.CS.Width(), n.cfg.Mix.Depth, n.cfg.Mix.Width)
	}
	if f.CS.Seed() != n.cfg.Mix.Seed {
		return core.Snapshot{}, fmt.Errorf("seed %d, cluster runs %d (different hash functions cannot mix)",
			f.CS.Seed(), n.cfg.Mix.Seed)
	}
	return core.Snapshot{Origin: f.Origin, CS: f.CS, Scale: f.Scale, Heavy: f.Heavy, Steps: f.Version}, nil
}

// applyDelta reconstructs version f.Version from the base snapshot: clone,
// set changed buckets, patch the heavy list.
func applyDelta(base core.Snapshot, f *Frame) (core.Snapshot, error) {
	cs := base.CS.Clone()
	if err := cs.ApplyDiff(f.Changes); err != nil {
		return core.Snapshot{}, err
	}
	heavy := applyHeavyDiff(base.Heavy, f.HeavyRemoved, f.HeavyUpserts)
	return core.Snapshot{Origin: f.Origin, CS: cs, Scale: f.Scale, Heavy: heavy, Steps: f.Version}, nil
}

// rebuildViewLocked re-mixes every origin's current snapshot, weighting
// each by its example count times its origin-GC factor (tombstoned and
// fully-decayed origins contribute nothing). Caller holds n.mu.
func (n *Node) rebuildViewLocked() {
	now := n.cfg.Clock.Now()
	snaps := make([]core.Snapshot, 0, len(n.origins))
	for _, o := range n.origins {
		f := n.originFactorLocked(o, now)
		o.factorQ = quantizeFactor(f)
		if f <= 0 {
			continue
		}
		sn := o.snap
		sn.WeightFactor = f
		//lint:ignore maporder MixSnapshots canonicalizes order by sorting snapshots by Origin before summing
		snaps = append(snaps, sn)
	}
	// Clear the dirty bit even on the (unreachable) mix error below, so a
	// poisoned state cannot spin the rebuild on every query.
	n.viewDirty.Store(false)
	v, err := core.MixSnapshots(snaps, n.cfg.Mix)
	if err != nil {
		// Unreachable: geometry is validated at frame ingest. Keep the old
		// view rather than serving a broken one.
		n.cfg.Logger.Error("view rebuild failed", slog.String("error", err.Error()))
		return
	}
	n.view.Store(v)
}

// OriginMixWeights reports each known origin's effective mixing weight
// (Steps × GC factor; zero once decayed or tombstoned) at the current
// clock — the observable the simulator's GC assertions are written
// against.
func (n *Node) OriginMixWeights() map[string]float64 {
	now := n.cfg.Clock.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]float64, len(n.origins))
	for id, o := range n.origins {
		out[id] = float64(o.snap.Steps) * n.originFactorLocked(o, now)
	}
	return out
}
