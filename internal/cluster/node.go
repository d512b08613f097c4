package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"wmsketch/internal/core"
	"wmsketch/internal/frame"
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
	// RPCTimeout bounds one peer round's RPCs: the pull and the push-back
	// share a single context deadline, so a stalled peer costs at most this
	// much wall time per round. 0 selects 10s; negative disables the
	// deadline (the HTTP transport's 15s client timeout still applies per
	// request).
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
	// Full frames carry the sketch whole: a geometry its readers refuse
	// would replicate nothing.
	if c.Mix.Depth > sketch.MaxDepth || c.Mix.Width > sketch.MaxBuckets/c.Mix.Depth {
		return fmt.Errorf("cluster: Mix geometry %d×%d exceeds what a sketch reader accepts (depth %d, %d buckets)",
			c.Mix.Depth, c.Mix.Width, sketch.MaxDepth, sketch.MaxBuckets)
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

// originState is everything known about one node's model: its current
// version in full, the versions before it as reverse deltas (delta bases
// for peers that hold them), and the GC bookkeeping that ages it out of
// the mix once it stops advancing.
type originState struct {
	id      string
	version int64
	snap    core.Snapshot // its heavy list in index order (heavy.go)
	// history holds the versions before the current one, oldest first:
	// with the current one, at most HistoryDepth versions. Each is its
	// reverse delta against the next newer version, the last against snap.
	history []reverseDelta
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

// reverseDelta is a version before an origin's current one, kept as what
// it differs in from the next newer version, with its own values. Applied
// to that version, it gives this one back bit for bit (rebuild).
type reverseDelta struct {
	version int64
	scale   float64
	// packed holds, in a delta frame's list encoding (appendDeltaLists),
	// the buckets this version differs in, ascending, with its values; the
	// keys the newer version added; and this version's heavy entries that
	// the newer version changed or dropped. Keys and entries are in index
	// order. It is sized to what it holds, or at most an eighth over when
	// it took over a dropped version's buffer (packReverse).
	packed []byte
}

// bytes is what r's buffer holds.
func (r *reverseDelta) bytes() int64 { return int64(cap(r.packed)) }

// deltaLists is a reverse delta's lists unpacked into scratch memory.
type deltaLists struct {
	changes []sketch.BucketChange
	added   []uint32
	heavy   []stream.Weighted
}

// unpack decodes r's lists into l, reusing l's memory. The node packed
// them itself, so it fails only on a non-finite value, which the decoder
// refuses and only a diverged local learner can publish; the lists are
// then incomplete.
func (l *deltaLists) unpack(r *reverseDelta) error {
	var err error
	l.changes, l.added, l.heavy, err = decodeDeltaLists(frame.NewCursor(r.packed), l.changes[:0], l.added[:0], l.heavy[:0])
	return err
}

// stateBytes is the model state o holds: 8 bytes a bucket and 16 a heavy
// entry of the current version, and its reverse deltas.
func (o *originState) stateBytes() int64 {
	var n int64
	if o.snap.CS != nil {
		n = int64(8*o.snap.CS.Size() + 16*len(o.snap.Heavy))
	}
	for i := range o.history {
		n += o.history[i].bytes()
	}
	return n
}

// versions is how many versions o holds: the current one and its history.
func (o *originState) versions() int {
	if o.snap.CS == nil {
		return 0
	}
	return 1 + len(o.history)
}

// age returns how many versions before the current one version is: 0 for
// the current version, 1 for the one before it, and -1 for a version o
// does not hold.
func (o *originState) age(version int64) int {
	if o.snap.CS == nil {
		return -1
	}
	if version == o.version {
		return 0
	}
	for k := 1; k <= len(o.history); k++ {
		if o.history[len(o.history)-k].version == version {
			return k
		}
	}
	return -1
}

// adopt installs snap as the current version. prev is the replaced
// version's reverse delta against snap, or nil to keep no history. A full
// history shifts down: its oldest version drops out, and no slot keeps it
// reachable (prev may have taken over its buffer).
func (o *originState) adopt(version int64, snap core.Snapshot, prev *reverseDelta, depth int, now time.Time) {
	switch {
	case prev == nil:
		clear(o.history)
		o.history = o.history[:0]
	case len(o.history) < depth-1:
		o.history = append(o.history, *prev)
	case depth > 1:
		copy(o.history, o.history[1:])
		o.history[len(o.history)-1] = *prev
	}
	o.version = version
	o.snap = snap
	o.lastAdvance = now
	o.gone = false
	o.built = nil
}

// reverseTo returns the current version's reverse delta against next, a
// version about to replace it whole in a history of depth versions: one
// bucket diff and one heavy-list walk. It returns nil when there is no
// current version to keep.
func (o *originState) reverseTo(next core.Snapshot, depth int) *reverseDelta {
	if o.snap.CS == nil {
		return nil
	}
	s := basePool.Get().(*baseScratch)
	defer basePool.Put(s)
	changes, err := sketch.AppendDiffBits(s.undo[:0], next.CS, o.snap.CS)
	if err != nil {
		return nil
	}
	s.undo = changes
	heavy, added := s.heavy.reverse(o.snap.Heavy, next.Heavy)
	return o.packReverse(depth, changes, added, heavy)
}

// packReverse returns the current version's reverse delta with the given
// lists, packed at their exact size, for an adopt into a history of depth
// versions. When that adopt drops the oldest version, the new delta may
// take over its buffer: if the buffer is large enough and at most an
// eighth over, it is written in place. So every read of the oldest
// version must come before this call, in the same critical section as the
// adopt.
func (o *originState) packReverse(depth int, changes []sketch.BucketChange, added []uint32, heavy []stream.Weighted) *reverseDelta {
	size := deltaListsSize(changes, added, heavy)
	var buf []byte
	if k := len(o.history); k > 0 && k == depth-1 {
		buf = o.history[0].packed[:0]
	}
	if cap(buf) < size || cap(buf)-size > size/8 {
		buf = make([]byte, 0, size)
	}
	// Both producers list each bucket once, ascending.
	buf, _ = appendDeltaLists(buf, changes, added, heavy)
	return &reverseDelta{version: o.version, scale: o.snap.Scale, packed: buf}
}

// compose returns the reverse delta that takes the current version back
// age versions in one step, its lists in s: the reverse deltas of the
// versions between, merged so that the older one wins on a bucket or key
// both name.
func (o *originState) compose(age int, s *baseScratch) (*deltaLists, error) {
	r := &s.lists[0]
	if err := r.unpack(&o.history[len(o.history)-1]); err != nil {
		return nil, err
	}
	for k := 2; k <= age; k++ {
		older, acc := &s.lists[1], &s.lists[2]
		if err := older.unpack(&o.history[len(o.history)-k]); err != nil {
			return nil, err
		}
		acc.changes = mergeChanges(acc.changes[:0], r.changes, older.changes)
		acc.heavy, acc.added = mergeHeavy(acc.heavy[:0], acc.added[:0], r.heavy, r.added, older.heavy, older.added)
		s.lists[0], s.lists[2] = *acc, *r
	}
	return r, nil
}

// rebuild returns the version age versions before the current one: its
// sketch a new copy, its heavy list in s.
func (o *originState) rebuild(age int, s *baseScratch) (core.Snapshot, error) {
	snap := o.snap
	snap.CS = snap.CS.Clone()
	if age > 0 {
		r, err := o.compose(age, s)
		if err != nil {
			return core.Snapshot{}, fmt.Errorf("version %d before the current one: %w", age, err)
		}
		// The changes came from sketches of this geometry, so they apply.
		_ = snap.CS.ApplyDiff(r.changes)
		s.patch.apply(snap.Heavy, r.added, r.heavy)
		old := &o.history[len(o.history)-age]
		snap.Heavy, snap.Scale, snap.Steps = s.patch.out, old.scale, old.version
	}
	return snap, nil
}

// baseScratch is the pooled memory older versions are composed, rebuilt
// and packed in. Nothing it holds outlives the call that used it.
type baseScratch struct {
	lists [3]deltaLists
	patch heavyPatch
	heavy heavyScratch
	// undo is a reverse delta's bucket changes before they are packed.
	undo []sketch.BucketChange
	// packed is composed changes packed for a build (forwardFrom).
	packed []byte
}

var basePool = sync.Pool{New: func() any { return new(baseScratch) }}

// applyDelta builds the version f carries on o's version f.Base, age
// versions before the current one, and returns it with the current
// version's reverse delta against it, for a history of depth versions. On
// the current version, the reverse delta is what f's change lists
// overwrite: the current buckets they name, and the heavy entries the walk
// that applies them replaces. On an older version, that version is
// rebuilt first, and the reverse delta is a diff. A frame whose changes do
// not name each bucket once, in ascending order, is refused: the decoder
// never yields one, and only such a list makes the overwritten buckets the
// exact reverse delta.
func (o *originState) applyDelta(f *Frame, age, depth int) (core.Snapshot, *reverseDelta, error) {
	if !ascending(f.Changes) {
		return core.Snapshot{}, nil, fmt.Errorf("delta changes do not ascend strictly")
	}
	s := basePool.Get().(*baseScratch)
	defer basePool.Put(s)
	base, err := o.rebuild(age, s)
	if err != nil {
		return core.Snapshot{}, nil, err
	}
	cs := base.CS
	if err := cs.ApplyDiff(f.Changes); err != nil {
		return core.Snapshot{}, nil, err
	}
	p := s.heavy.applyDiff(base.Heavy, f.HeavyRemoved, f.HeavyUpserts)
	snap := core.Snapshot{Origin: f.Origin, CS: cs, Scale: f.Scale, Heavy: slices.Clone(p.out), Steps: f.Version}
	if age > 0 {
		return snap, o.reverseTo(snap, depth), nil
	}
	undo := s.undo[:0]
	for _, ch := range f.Changes {
		undo = append(undo, sketch.BucketChange{Index: ch.Index, Value: o.snap.CS.At(ch.Index)})
	}
	s.undo = undo
	return snap, o.packReverse(depth, undo, p.added, p.changed), nil
}

// ascending reports whether changes name each bucket once, in ascending
// order, as Diff and decoded frames do.
func ascending(changes []sketch.BucketChange) bool {
	for i := 1; i < len(changes); i++ {
		if changes[i].Index <= changes[i-1].Index {
			return false
		}
	}
	return true
}

// Node is one cluster member: the per-origin state table, the merged
// serving view, and the gossip machinery. All methods are safe for
// concurrent use.
type Node struct {
	cfg Config
	// geo is the sketch geometry of cfg.Mix: full frames the node reads
	// must have it, and their sketches share its hash family.
	geo *sketch.Geometry

	// pmu serializes PublishLocal, which a gossip round, /v1/sync and a
	// restore may run at once; a pull never publishes. It is taken before
	// mu and before the learner's own lock, never while holding either.
	pmu     sync.Mutex
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

	// Causal-lineage bookkeeping (see DrainLineage): once something has
	// drained it, every applied frame records which trace carried it, and
	// the simulator checks each entry against the set of round traces
	// actually minted.
	lmu            sync.Mutex
	lineageOn      bool           // guarded by lmu; set by the first drain
	lineage        []LineageEntry // guarded by lmu
	lineageDropped int64          // guarded by lmu
	lastRound      trace.TraceID  // guarded by lmu
}

// maxLineageEntries bounds the per-node lineage ring between drains. The
// simulator drains every round; a node applying more frames than this
// between drains records the overflow in DrainLineage's dropped count (the
// lineage gate fails on any drop — silence would hide missing evidence).
// A node nothing drains, such as wmserve's, keeps no ring at all.
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

// appendLineage records one applied frame's provenance, from the first
// DrainLineage on: before it, nothing reads the ring.
func (n *Node) appendLineage(origin string, version int64, tid trace.TraceID) {
	n.lmu.Lock()
	defer n.lmu.Unlock()
	if !n.lineageOn {
		return
	}
	if len(n.lineage) >= maxLineageEntries {
		n.lineageDropped++
		return
	}
	n.lineage = append(n.lineage, LineageEntry{Origin: origin, Version: version, Trace: tid})
}

// DrainLineage returns and clears the applied-frame provenance recorded
// since the last drain, plus how many entries overflowed the ring (always
// zero unless the caller drains too rarely). A node records provenance
// only from its first drain on, so a caller that checks lineage drains
// once before the traffic it checks; the first drain returns nothing.
func (n *Node) DrainLineage() ([]LineageEntry, int64) {
	n.lmu.Lock()
	defer n.lmu.Unlock()
	n.lineageOn = true
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
		geo:     cfg.Mix.Sketch(),
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
	// The first View builds the view (over no origins, the empty model),
	// so a restore boot that publishes before any read builds just one.
	n.viewDirty.Store(true)
	n.met.reg.GaugeFunc("wmgossip_state_bytes",
		"model state held for all origins: current versions in full, older ones as reverse deltas",
		func() float64 { return float64(n.stateBytes()) })
	return n, nil
}

// stateBytes is the model state the node holds for all origins, counted
// from buckets and entries: the wmgossip_state_bytes gauge, and the sum of
// Status's per-origin state_bytes.
func (n *Node) stateBytes() int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	var total int64
	for _, o := range n.origins {
		total += o.stateBytes()
	}
	return total
}

// Self returns the node's id.
func (n *Node) Self() string { return n.cfg.Self }

// ReadFramesTraced is the package-level ReadFramesTraced on the node's
// geometry: a full frame whose sketch header disagrees with Config.Mix in
// depth, width or seed fails the stream before any bucket is allocated,
// and every decoded sketch shares the node's hash family. A full or delta
// frame whose version the node already holds is not decoded past its
// origin and version: it reads as a stale stub, which ApplyFramesCtx
// counts as stale. The node reads pull answers through it; a server reads
// pushed streams through it.
func (n *Node) ReadFramesTraced(r io.Reader) ([]Frame, trace.SpanContext, error) {
	return readFrames(r, n)
}

// heldVersions fills m, emptied, with the version the node holds of each
// origin, and returns it (a new map when m is nil): the node's digest.
// Versions only grow, so it bounds from below what the node holds at any
// later time.
func (n *Node) heldVersions(m map[string]int64) map[string]int64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if m == nil {
		m = make(map[string]int64, len(n.origins))
	}
	clear(m)
	for id, o := range n.origins {
		m[id] = o.version
	}
	return m
}

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
// the last publish costs one Steps call, not a snapshot. GossipOnce calls
// it once a round; a server also calls it on /v1/sync and after a restore
// or upload. Pulls answer from the version it last installed.
func (n *Node) PublishLocal() (int64, bool, error) {
	// One publish at a time, from the Steps check through adopt: a caller
	// that arrives while another snapshots the learner waits, then finds
	// the learner published and returns that version without a snapshot
	// of its own. Steps and ModelSnapshot run outside n.mu, so the
	// learner's own lock (the server's backend lock) never nests inside
	// it; pmu is taken before either.
	n.pmu.Lock()
	defer n.pmu.Unlock()
	if v, moved := n.localMoved(n.cfg.Local.Steps()); !moved {
		return v, false, nil
	}
	sn, err := n.cfg.Local.ModelSnapshot()
	if err != nil {
		return 0, false, fmt.Errorf("cluster: local snapshot: %w", err)
	}
	sn.Origin = n.cfg.Self
	// The snapshot's heavy list is ours: sort it into the index order the
	// node keeps lists in.
	sn.Heavy = indexOrder(sn.Heavy)

	n.mu.Lock()
	defer n.mu.Unlock()
	self := n.selfLocked()
	// The version IS the example count: monotonic while the process lives,
	// and it resumes rather than regresses after a checkpoint restore.
	if sn.Steps <= self.version {
		return self.version, false, nil
	}
	depth := n.cfg.HistoryDepth
	self.adopt(sn.Steps, sn, self.reverseTo(sn, depth), depth, n.cfg.Clock.Now())
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
func (n *Node) Digest() map[string]int64 { return n.heldVersions(nil) }

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

// buildFrame picks delta vs full for one origin, and puts the heavy lists
// in the weight order frames carry them in. A delta from an older version
// comes from its reverse delta against the current version (forwardFrom):
// the base itself is never rebuilt. A reverse delta that does not unpack
// whole gives a full frame.
func buildFrame(o *originState, acked int64) Frame {
	if age := o.age(acked); age > 0 {
		s := basePool.Get().(*baseScratch)
		defer basePool.Put(s)
		changes, r, err := o.forwardFrom(age, s)
		if err != nil {
			return FullFrame(o.snap)
		}
		// A delta entry costs ~1.5× a raw bucket (varint gap + 8-byte
		// value vs 8 bytes in the dense dump); past ~2/3 of the buckets
		// changed, the full snapshot is the smaller frame.
		if 3*len(changes) <= 2*o.snap.CS.Size() {
			removed, upserts := s.heavy.forward(r.heavy, r.added, o.snap.Heavy)
			return Frame{
				Kind: kindDelta, Origin: o.id, Version: o.version, Base: acked,
				Scale:   o.snap.Scale,
				Changes: changes, HeavyRemoved: removed, HeavyUpserts: upserts,
			}
		}
	}
	return FullFrame(o.snap)
}

// forwardFrom returns the bucket changes of the delta frame from the
// version age versions before the current one, and the reverse delta
// whose heavy lists give the frame's, in s. The changes come from a walk
// over a packed change list (forwardPacked). One version back, the common
// case, that is the reverse delta's own, read in place, and only its
// heavy lists are unpacked; further back, the reverse deltas between are
// unpacked and composed, and the composed changes packed into s.
func (o *originState) forwardFrom(age int, s *baseScratch) ([]sketch.BucketChange, *deltaLists, error) {
	if age == 1 {
		p := o.history[len(o.history)-1].packed
		changes, end := forwardPacked(p, o.snap.CS)
		r := &s.lists[0]
		var err error
		r.added, r.heavy, err = decodeHeavyLists(frame.NewCursor(p[end:]), r.added[:0], r.heavy[:0])
		return changes, r, err
	}
	r, err := o.compose(age, s)
	if err != nil {
		return nil, nil, err
	}
	// Composed from the node's own ascending lists, the changes encode.
	s.packed, _ = appendDeltaLists(s.packed[:0], r.changes, nil, nil)
	changes, _ := forwardPacked(s.packed, o.snap.CS)
	return changes, r, nil
}

// forwardPacked is Diff(base, cur) for the base that a packed change list
// (the list at the start of p, in appendDeltaLists' encoding), taking cur
// back to base bit for bit, describes: the buckets it names whose value
// differs from cur's, carrying cur's values. Every other bucket of base
// is cur's. It also returns the offset past the list. The node packed the
// list itself, so the walk makes none of the decoder's checks; it reads
// each old value only to compare it, so a non-finite one, which the
// decoder refuses, does no harm.
func forwardPacked(p []byte, cur *sketch.CountSketch) ([]sketch.BucketChange, int) {
	n, off := binary.Uvarint(p)
	var changes []sketch.BucketChange
	idx := uint32(0)
	for range n {
		gap, m := uint32(p[off]), 1
		if gap >= 0x80 {
			g, k := binary.Uvarint(p[off:])
			gap, m = uint32(g), k
		}
		idx += gap
		old := math.Float64frombits(binary.LittleEndian.Uint64(p[off+m:]))
		off += m + 8
		if v := cur.At(idx); old != v {
			if changes == nil {
				// All but a bucket whose zero changed sign differ.
				changes = make([]sketch.BucketChange, 0, n)
			}
			changes = append(changes, sketch.BucketChange{Index: idx, Value: v})
		}
	}
	return changes, off
}

// mergeChanges appends to dst the union of two ascending change lists,
// taking older's value for a bucket both name: the bucket changes of two
// reverse deltas composed (originState.compose).
func mergeChanges(dst, newer, older []sketch.BucketChange) []sketch.BucketChange {
	i, j := 0, 0
	for i < len(newer) && j < len(older) {
		switch n, o := newer[i], older[j]; {
		case n.Index < o.Index:
			dst = append(dst, n)
			i++
		case o.Index < n.Index:
			dst = append(dst, o)
			j++
		default:
			dst = append(dst, o)
			i++
			j++
		}
	}
	dst = append(dst, newer[i:]...)
	return append(dst, older[j:]...)
}

// ApplyResult reports what one ApplyFrames call did.
type ApplyResult struct {
	// TheirDigest is the digest frame carried in the stream, if any.
	TheirDigest map[string]int64
	// Applied counts adopted versions; Stale counts frames at or below the
	// version already held; Rejected counts frames that failed validation.
	Applied, Stale, Rejected int
	// NeedFull lists origins whose delta base we did not have. A gossip
	// round leaves them to its next pull from the same peer, which zeroes
	// their digest entries and so fetches them in full.
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
// gossip round when the stream header had an annotation); once lineage is
// drained (DrainLineage), every adopted version is recorded in the lineage
// ring under that trace ID, which is how the simulator proves each applied
// frame descends from a real round. A stale stub (Node.ReadFramesTraced)
// counts as stale wherever it is applied.
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
		if f.stale || o != nil && f.Version <= o.version {
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
		var prev *reverseDelta
		switch f.Kind {
		case kindFull:
			snap, err = n.snapshotFromFullLocked(f)
			if err == nil {
				n.met.appliedFull.Inc()
				if o != nil {
					prev = o.reverseTo(snap, n.cfg.HistoryDepth)
				}
			}
		case kindDelta:
			age := -1
			if o != nil {
				age = o.age(f.Base)
			}
			if age < 0 {
				res.NeedFull = append(res.NeedFull, f.Origin)
				continue
			}
			snap, prev, err = o.applyDelta(f, age, n.cfg.HistoryDepth)
			if err == nil {
				n.met.appliedDelta.Inc()
				if age > 0 {
					n.met.appliedOlderBase.Inc()
				}
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
		o.adopt(f.Version, snap, prev, n.cfg.HistoryDepth, n.cfg.Clock.Now())
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
	// The frame is not ours to reorder (a caller may share it), so the node
	// keeps an index-ordered copy of its list.
	heavy := indexOrder(slices.Clone(f.Heavy))
	return core.Snapshot{Origin: f.Origin, CS: f.CS, Scale: f.Scale, Heavy: heavy, Steps: f.Version}, nil
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
