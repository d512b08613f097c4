// Package sim is a discrete-event simulator for the cluster replication
// layer: it drives 100+ real cluster.Nodes — real gossip client, real wire
// codec, real membership and origin-GC machinery — over an in-memory
// transport with seeded message loss, corruption, partitions, and node
// churn, all on a virtual clock, so a full fleet-scale failure scenario
// runs deterministically in seconds of CPU and zero wall-clock sleeps.
//
// The convergence gate compares every surviving node's served view against
// the union baseline (directly parameter-mixing every live learner's final
// snapshot): relative L2 error over the feature prefix must come in under
// RelErrGate. Because gossip mixing is exact once state has fully spread,
// a healthy run converges to bit-identical views and the gate's slack only
// absorbs propagation lag, not approximation error.
package sim

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"time"

	"wmsketch/internal/cluster"
	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
	"wmsketch/internal/trace"

	"context"
)

// RelErrGate is the CI convergence gate: max per-node relative error of the
// served view against the union baseline.
const RelErrGate = 0.05

// Scenario is one simulated run. Zero values select the documented
// defaults; the acceptance scenario the CI gate runs is Default100().
type Scenario struct {
	// Nodes is the fleet size; PeersPerNode the gossip-graph degree (a ring
	// plus random chords, so the graph is always connected). 0 selects 6.
	Nodes        int `json:"nodes"`
	PeersPerNode int `json:"peers_per_node"`
	// Rounds is the total simulated gossip rounds; TrainRounds how many of
	// them each live node ingests ChunkPerRound fresh examples before
	// gossiping (training then stops so the fleet can quiesce and the gate
	// measures convergence, not lag). 0 selects Rounds-25 and 8.
	Rounds        int `json:"rounds"`
	TrainRounds   int `json:"train_rounds"`
	ChunkPerRound int `json:"chunk_per_round"`
	// RoundStep is the virtual time one round advances the shared clock.
	// 0 selects 2s (the per-peer backoff base, so one failed round backs a
	// peer off exactly one round).
	RoundStep time.Duration `json:"round_step"`
	// Seed drives everything: topology, fault schedule, data. Same seed,
	// same run, bit for bit. 0 selects 1.
	Seed int64 `json:"seed"`
	// Loss is the per-RPC drop probability; Corrupt the per-pull/push
	// probability of flipping a byte in the frame stream (which the decoder
	// must reject — a corrupted frame counts as a failed round, never as
	// ingested state).
	Loss    float64 `json:"loss"`
	Corrupt float64 `json:"corrupt"`
	// PartitionStart/PartitionRounds cut the fleet into two halves (node
	// index below/above Nodes/2) for that round span; cross-half RPCs fail.
	// PartitionRounds 0 disables.
	PartitionStart  int `json:"partition_start"`
	PartitionRounds int `json:"partition_rounds"`
	// ChurnRound permanently kills ChurnFrac of the fleet (every ⌈1/f⌉-th
	// node, so both halves lose members) at the start of that round.
	// ChurnFrac 0 disables.
	ChurnRound int     `json:"churn_round"`
	ChurnFrac  float64 `json:"churn_frac"`
	// GCAfter/GCDecay are the origin-GC knobs under test: dead nodes'
	// origins must decay to zero weight in every survivor's view before the
	// run ends. 0 selects 80s and 40s of virtual time.
	GCAfter time.Duration `json:"gc_after"`
	GCDecay time.Duration `json:"gc_decay"`
	// EvalFeatures is the feature-index prefix the relative-error gate sums
	// over. 0 selects 2048.
	EvalFeatures int `json:"eval_features"`

	// Logf receives round-by-round narration; nil discards it.
	Logf func(format string, args ...interface{}) `json:"-"`
}

func (sc *Scenario) fill() error {
	if sc.Nodes < 2 {
		return fmt.Errorf("sim: need at least 2 nodes, have %d", sc.Nodes)
	}
	if sc.PeersPerNode == 0 {
		sc.PeersPerNode = 6
	}
	if sc.PeersPerNode >= sc.Nodes {
		sc.PeersPerNode = sc.Nodes - 1
	}
	if sc.Rounds == 0 {
		sc.Rounds = 130
	}
	if sc.TrainRounds == 0 {
		sc.TrainRounds = sc.Rounds - 25
		if sc.TrainRounds < 1 {
			sc.TrainRounds = 1
		}
	}
	if sc.ChunkPerRound == 0 {
		sc.ChunkPerRound = 8
	}
	if sc.RoundStep == 0 {
		sc.RoundStep = 2 * time.Second
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.GCAfter == 0 {
		sc.GCAfter = 80 * time.Second
	}
	if sc.GCDecay == 0 {
		sc.GCDecay = 40 * time.Second
	}
	if sc.EvalFeatures == 0 {
		sc.EvalFeatures = 2048
	}
	if sc.Loss < 0 || sc.Loss > 1 || sc.Corrupt < 0 || sc.Corrupt > 1 ||
		sc.ChurnFrac < 0 || sc.ChurnFrac > 1 {
		return fmt.Errorf("sim: probabilities must be in [0,1]")
	}
	if sc.Logf == nil {
		sc.Logf = func(string, ...interface{}) {}
	}
	return nil
}

// Default100 is the CI acceptance scenario: 100 nodes, 10% message loss,
// one 30-round partition, 20% churn, fixed seed. The timeline is laid out
// so the churned nodes' final versions finish spreading before the
// partition cuts the fleet (rounds 20→40), the partition heals with enough
// rounds left for cross-half state to flow (70→80), and the origin-GC
// window fully elapses for dead origins (gone by ~round 85) while live
// origins stay fresh through the quiesce (ages ≤ 40s < GCAfter at eval).
func Default100() Scenario {
	return Scenario{
		Nodes:           100,
		Rounds:          100,
		TrainRounds:     80,
		Seed:            20260807,
		Loss:            0.10,
		Corrupt:         0.02,
		PartitionStart:  40,
		PartitionRounds: 30,
		ChurnRound:      20,
		ChurnFrac:       0.20,
		GCAfter:         60 * time.Second,
		GCDecay:         30 * time.Second,
	}
}

// Report is the run outcome. TestAcceptanceScenario requires Default100's
// report, indented JSON, to equal BENCH_sim.json byte for byte.
type Report struct {
	Scenario Scenario `json:"scenario"`

	LiveNodes int `json:"live_nodes"`
	DeadNodes int `json:"dead_nodes"`

	// Transport-level fault accounting.
	RPCs              int64 `json:"rpcs"`
	Dropped           int64 `json:"dropped"`
	PartitionRefusals int64 `json:"partition_refusals"`
	Corrupted         int64 `json:"corrupted"`
	// BytesOnWire sums every surviving node's gossip bytes (in + out) as
	// counted by the real client instrumentation.
	BytesOnWire int64 `json:"bytes_on_wire"`
	// OriginsGCed sums tombstoned origins across survivors.
	OriginsGCed int64 `json:"origins_gced"`
	// RejectedFrames counts frames the validators refused (corruption must
	// land here, never in model state).
	RejectedFrames int64 `json:"rejected_frames"`

	// Convergence: per-node relative L2 error of the served view against
	// the union baseline, and how many survivors hold every live origin at
	// its final version.
	MaxRelErr   float64 `json:"max_rel_err"`
	MeanRelErr  float64 `json:"mean_rel_err"`
	FullySynced int     `json:"fully_synced"`
	// MaxDeadWeight is the largest mixing weight any survivor still assigns
	// to any churned-out origin; the GC gate requires exactly zero.
	MaxDeadWeight float64 `json:"max_dead_weight"`

	// Journal-vs-registry invariant: the transport's own record of
	// delivered traffic against the fleet's summed metric registries
	// (every node, dead ones included — their counters stop at death but
	// the journal stopped delivering to them then too). The bytes must
	// match exactly; MetricsConsistent also requires every per-kind frame
	// count and byte total to agree, and gates Converged.
	JournalPullBytes  int64 `json:"journal_pull_bytes"`
	JournalPushBytes  int64 `json:"journal_push_bytes"`
	MetricPullBytes   int64 `json:"metric_pull_bytes"`
	MetricPushBytes   int64 `json:"metric_push_bytes"`
	MetricsConsistent bool  `json:"metrics_consistent"`

	// Causal lineage: every frame any node applied must carry the trace id
	// of a gossip round some node actually minted — under loss, corruption,
	// partition, AND churn, no state may materialize out of thin air.
	// LineageApplies counts checked apply records, LineageViolations the
	// ones whose trace was zero or unknown, LineageDropped entries lost to
	// ring overflow (must be zero: lost evidence is failed evidence).
	// LineageConsistent requires applies > 0 with zero violations and zero
	// drops, and gates Converged.
	LineageApplies    int64 `json:"lineage_applies"`
	LineageViolations int64 `json:"lineage_violations"`
	LineageDropped    int64 `json:"lineage_dropped"`
	LineageConsistent bool  `json:"lineage_consistent"`

	Converged bool `json:"converged"`
}

// simGeometry is the sketch configuration every simulated node shares.
// Width is kept small so a 100-node fleet's full origin tables stay cheap;
// the replication layer is what is under test, not sketch accuracy.
func simGeometry() core.Config {
	return core.Config{Width: 128, Depth: 1, HeapSize: 16, Lambda: 1e-6, Seed: 7}
}

// simNode is one fleet member: a real learner behind a real cluster node.
type simNode struct {
	id    string
	index int
	alive bool
	gen   *datagen.Classification
	learn *core.AWMSketch
	node  *cluster.Node
}

// world owns the virtual clock, the seeded fault schedule, and the fleet.
// Everything runs on one goroutine, so a run is a pure function of the
// scenario.
type world struct {
	sc Scenario
	// geo is simGeometry bound to one hash family, built once per run and
	// shared by every node's learner, views and decoded frames.
	geo   *core.Geometry
	clock *cluster.VirtualClock
	rng   *rand.Rand
	nodes []*simNode
	byID  map[string]*simNode

	partitionOn bool

	rpcs, dropped, refusals, corrupted int64

	journal wireJournal

	// minted accumulates every round trace id any node's GossipOnce has
	// produced; lineage entries are checked against it.
	minted map[trace.TraceID]bool

	lineageApplies, lineageViolations, lineageDropped int64
}

// wireJournal is the transport's own record of *delivered* traffic: a pull
// response or push stream is journaled only when it reached its consumer
// uncorrupted (routed OK, byte-exact). The client-side registry counters
// must then match it exactly — every delivered byte counted once, every
// dropped or corrupted byte counted never — which evaluate() asserts as
// the MetricsConsistent gate. Frame kinds index by their wire kind byte.
type wireJournal struct {
	pullBytes, pushBytes           int64
	pullFrames, pushFrames         [4]int64
	pullFrameBytes, pushFrameBytes [4]int64
}

func (j *wireJournal) recordPull(frames []cluster.Frame, streamLen int) {
	j.pullBytes += int64(streamLen)
	for i := range frames {
		k := frames[i].Kind
		j.pullFrames[k]++
		j.pullFrameBytes[k] += frames[i].WireBytes
	}
}

func (j *wireJournal) recordPush(frames []cluster.Frame, streamLen int) {
	j.pushBytes += int64(streamLen)
	for i := range frames {
		k := frames[i].Kind
		j.pushFrames[k]++
		j.pushFrameBytes[k] += frames[i].WireBytes
	}
}

// memTransport is the in-memory cluster.Transport: an RPC is a direct call
// into the destination node, filtered through the world's fault rules.
type memTransport struct {
	w   *world
	src *simNode
}

// route applies reachability rules: dead targets refuse, partitions cut
// cross-half traffic, and lossy links drop at random.
func (w *world) route(src *simNode, dstID string) (*simNode, error) {
	w.rpcs++
	dst := w.byID[dstID]
	if dst == nil {
		return nil, fmt.Errorf("sim: no route to %q", dstID)
	}
	if !dst.alive {
		w.dropped++
		return nil, fmt.Errorf("sim: %s is down", dstID)
	}
	if w.partitionOn && w.half(src.index) != w.half(dst.index) {
		w.refusals++
		return nil, fmt.Errorf("sim: partitioned from %s", dstID)
	}
	if w.sc.Loss > 0 && w.rng.Float64() < w.sc.Loss {
		w.dropped++
		return nil, fmt.Errorf("sim: message to %s lost", dstID)
	}
	return dst, nil
}

func (w *world) half(index int) int {
	if index < w.sc.Nodes/2 {
		return 0
	}
	return 1
}

// maybeCorrupt flips one byte of an encoded frame stream with probability
// Corrupt, reporting whether it did. The decoder must reject the result
// (the per-frame CRC catches every single-byte flip); the simulation
// asserts the rejection shows up in RejectedFrames or a failed round,
// never in state — and never in the byte counters, which is why corrupted
// streams are excluded from the wire journal.
func (w *world) maybeCorrupt(b []byte) ([]byte, bool) {
	if w.sc.Corrupt > 0 && len(b) > 0 && w.rng.Float64() < w.sc.Corrupt {
		w.corrupted++
		b = append([]byte(nil), b...)
		b[w.rng.Intn(len(b))] ^= 0xA5
		return b, true
	}
	return b, false
}

func (t memTransport) Pull(ctx context.Context, peerURL string, req cluster.PullRequest) (io.ReadCloser, error) {
	dst, err := t.w.route(t.src, peerURL)
	if err != nil {
		return nil, err
	}
	frames := dst.node.BuildFrames(req.Digest, true)
	var buf bytes.Buffer
	// Stamp the response with the puller's round span (ctx comes from its
	// gossip client), exactly like the HTTP handler continuing a
	// traceparent — the wire annotation is what keeps lineage intact here.
	if _, err := cluster.WriteFramesTraced(&buf, trace.SpanContextOf(ctx), frames); err != nil {
		return nil, err
	}
	stream, corrupted := t.w.maybeCorrupt(buf.Bytes())
	if !corrupted {
		// Delivered intact: the puller will read and count exactly this.
		t.w.journal.recordPull(frames, len(stream))
	}
	return io.NopCloser(bytes.NewReader(stream)), nil
}

func (t memTransport) Push(ctx context.Context, peerURL string, frames []byte) error {
	dst, err := t.w.route(t.src, peerURL)
	if err != nil {
		return err
	}
	stream, corrupted := t.w.maybeCorrupt(frames)
	// The receiving node decodes the stream as the server's push handler
	// does, on its own geometry.
	decoded, sc, err := dst.node.ReadFramesTraced(bytes.NewReader(stream))
	if err != nil {
		return fmt.Errorf("sim: push to %s: %w", peerURL, err)
	}
	if !corrupted {
		// Delivered intact: the pusher counts its stream after this returns.
		t.w.journal.recordPush(decoded, len(stream))
	}
	// The receiving node continues the pusher's round trace (read back off
	// the wire annotation), so its lineage records point at the real round.
	dst.node.ApplyFramesCtx(trace.ContextWithRemote(ctx, sc), decoded)
	return nil
}

// topology wires node i to its ring neighbors plus random chords, deduped,
// degree PeersPerNode. The ring keeps the graph connected whatever the
// chords do.
func (w *world) topology(i int) []string {
	n := w.sc.Nodes
	peers := map[int]bool{(i + 1) % n: true, (i - 1 + n) % n: true}
	for len(peers) < w.sc.PeersPerNode {
		j := w.rng.Intn(n)
		if j != i {
			peers[j] = true
		}
	}
	ids := make([]int, 0, len(peers))
	for j := range peers {
		ids = append(ids, j)
	}
	sort.Ints(ids)
	out := make([]string, len(ids))
	for k, j := range ids {
		out[k] = nodeID(j)
	}
	return out
}

func nodeID(i int) string { return fmt.Sprintf("n%03d", i) }

// churned reports whether node i is in the churn set: every ⌈1/f⌉-th node,
// so the dead are spread across both partition halves.
func (sc *Scenario) churned(i int) bool {
	if sc.ChurnFrac <= 0 {
		return false
	}
	period := int(math.Ceil(1 / sc.ChurnFrac))
	return i%period == period-1
}

// Run executes the scenario and evaluates the gates.
func Run(sc Scenario) (Report, error) {
	if err := sc.fill(); err != nil {
		return Report{}, err
	}
	w := &world{
		sc:     sc,
		geo:    core.NewGeometry(simGeometry()),
		clock:  cluster.NewVirtualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)),
		rng:    rand.New(rand.NewSource(sc.Seed)),
		byID:   make(map[string]*simNode, sc.Nodes),
		minted: make(map[trace.TraceID]bool),
	}
	for i := 0; i < sc.Nodes; i++ {
		s := &simNode{
			id:    nodeID(i),
			index: i,
			alive: true,
			gen:   datagen.RCV1Like(sc.Seed + int64(i)),
			learn: w.geo.NewAWMSketch(),
		}
		node, err := cluster.NewNode(cluster.Config{
			Self:          s.id,
			Peers:         w.topology(i),
			Mix:           w.geo.Mix(),
			Local:         s.learn,
			Interval:      -1, // rounds are driven manually
			HistoryDepth:  2,  // bounds fleet-wide memory: N² origins each hold ≤2 versions
			OriginGCAfter: sc.GCAfter,
			OriginGCDecay: sc.GCDecay,
			Clock:         w.clock,
			Transport:     memTransport{w: w, src: s},
			Seed:          sc.Seed + int64(i)*7919,
			// Every node gets its own deterministic tracer on the shared
			// virtual clock: rounds mint trace ids the lineage gate collects.
			// Probabilistic sampling is off — the recorder is not what is
			// under test, the id propagation is.
			Tracer: trace.New(trace.Options{
				Now:        w.clock.Now,
				Seed:       sc.Seed + int64(i)*104729,
				SampleRate: -1,
			}),
		})
		if err != nil {
			return Report{}, err
		}
		s.node = node
		w.nodes = append(w.nodes, s)
		w.byID[s.id] = s
	}
	// A node records lineage from its first drain on: drain every node
	// once before any traffic, so the gate sees every apply.
	w.drainLineage()

	for round := 0; round < sc.Rounds; round++ {
		if sc.ChurnFrac > 0 && round == sc.ChurnRound {
			killed := 0
			for _, s := range w.nodes {
				if sc.churned(s.index) {
					s.alive = false
					killed++
				}
			}
			sc.Logf("sim: round %d: churn killed %d nodes", round, killed)
		}
		if sc.PartitionRounds > 0 {
			wasOn := w.partitionOn
			w.partitionOn = round >= sc.PartitionStart && round < sc.PartitionStart+sc.PartitionRounds
			if w.partitionOn != wasOn {
				sc.Logf("sim: round %d: partition %v", round, w.partitionOn)
			}
		}
		for _, s := range w.nodes {
			if !s.alive {
				continue
			}
			if round < sc.TrainRounds {
				for _, ex := range s.gen.Take(sc.ChunkPerRound) {
					s.learn.Update(ex.X, ex.Y)
				}
			}
			s.node.GossipOnce()
			if tid := s.node.LastRoundTrace(); !tid.IsZero() {
				w.minted[tid] = true
			}
		}
		// Check causal lineage while the evidence is fresh: every frame any
		// node (dead ones included — they may hold entries from before their
		// death) applied this round must trace back to a minted round.
		w.drainLineage()
		w.clock.Advance(sc.RoundStep)
		if round%10 == 9 {
			h := w.nodes[0].node.Health()
			sc.Logf("sim: round %d done (n000 health %+v)", round, h)
		}
	}

	return w.evaluate()
}

// drainLineage empties every node's applied-frame provenance ring and
// checks each entry against the minted round-trace set.
func (w *world) drainLineage() {
	for _, s := range w.nodes {
		entries, dropped := s.node.DrainLineage()
		w.lineageDropped += dropped
		for _, e := range entries {
			w.lineageApplies++
			if e.Trace.IsZero() || !w.minted[e.Trace] {
				w.lineageViolations++
				w.sc.Logf("sim: LINEAGE VIOLATION: %s applied %s v%d under unknown trace %s",
					s.id, e.Origin, e.Version, e.Trace)
			}
		}
	}
}

// evaluate runs the gates: union-baseline relative error per surviving
// node, full-sync census, and the dead-origin zero-weight check.
func (w *world) evaluate() (Report, error) {
	rep := Report{Scenario: w.sc}
	rep.RPCs, rep.Dropped, rep.PartitionRefusals, rep.Corrupted =
		w.rpcs, w.dropped, w.refusals, w.corrupted

	var live, dead []*simNode
	for _, s := range w.nodes {
		if s.alive {
			live = append(live, s)
		} else {
			dead = append(dead, s)
		}
	}
	rep.LiveNodes, rep.DeadNodes = len(live), len(dead)

	// Union baseline: directly mix every surviving learner's snapshot —
	// the model a single learner would have reached on the concatenation
	// of every survivor's stream.
	finalVersion := make(map[string]int64, len(live))
	snaps := make([]core.Snapshot, 0, len(live))
	for _, s := range live {
		sn, err := s.learn.ModelSnapshot()
		if err != nil {
			return rep, err
		}
		sn.Origin = s.id
		sn.Heavy = append([]stream.Weighted(nil), sn.Heavy...)
		stream.SortWeighted(sn.Heavy)
		snaps = append(snaps, sn)
		finalVersion[s.id] = sn.Steps
	}
	want, err := core.MixSnapshots(snaps, w.geo.Mix())
	if err != nil {
		return rep, err
	}

	var sumRel float64
	for _, s := range live {
		st := s.node.Status()
		rep.BytesOnWire += st.BytesIn + st.BytesOut
		rep.OriginsGCed += st.OriginsGCed
		rep.RejectedFrames += st.RejectedFrames

		view := s.node.View()
		var num, den float64
		for i := 0; i < w.sc.EvalFeatures; i++ {
			g, wv := view.Estimate(uint32(i)), want.Estimate(uint32(i))
			num += (g - wv) * (g - wv)
			den += wv * wv
		}
		rel := 1.0
		if den > 0 {
			rel = math.Sqrt(num / den)
		}
		sumRel += rel
		if rel > rep.MaxRelErr {
			rep.MaxRelErr = rel
		}

		synced := true
		digest := s.node.Digest()
		for id, v := range finalVersion {
			if digest[id] != v {
				synced = false
				break
			}
		}
		if synced {
			rep.FullySynced++
		}

		weights := s.node.OriginMixWeights()
		for _, d := range dead {
			if weight := weights[d.id]; weight > rep.MaxDeadWeight {
				rep.MaxDeadWeight = weight
			}
		}
	}
	if len(live) > 0 {
		rep.MeanRelErr = sumRel / float64(len(live))
	}
	w.checkMetrics(&rep)
	w.drainLineage() // catch any applies after the final round's drain
	rep.LineageApplies = w.lineageApplies
	rep.LineageViolations = w.lineageViolations
	rep.LineageDropped = w.lineageDropped
	rep.LineageConsistent = w.lineageApplies > 0 && w.lineageViolations == 0 && w.lineageDropped == 0
	if rep.LineageConsistent {
		w.sc.Logf("sim: lineage consistent: all %d applied frames trace to one of %d minted rounds",
			rep.LineageApplies, len(w.minted))
	} else {
		w.sc.Logf("sim: LINEAGE INCONSISTENT: %d applies, %d violations, %d dropped entries",
			rep.LineageApplies, rep.LineageViolations, rep.LineageDropped)
	}
	rep.Converged = rep.MaxRelErr <= RelErrGate && rep.MaxDeadWeight == 0 &&
		rep.MetricsConsistent && rep.LineageConsistent
	w.sc.Logf("sim: max rel err %.4g, mean %.4g, %d/%d fully synced, max dead weight %g, %d origins GCed, %.1f MB on wire",
		rep.MaxRelErr, rep.MeanRelErr, rep.FullySynced, len(live), rep.MaxDeadWeight,
		rep.OriginsGCed, float64(rep.BytesOnWire)/1e6)
	return rep, nil
}

// frameKinds maps wire kind bytes to their metric label values (mirrors
// the cluster package's exposition labels). A slice, not a map, so even
// mismatch narration comes out in a deterministic order.
var frameKinds = []struct {
	kind  byte
	label string
}{{1, "digest"}, {2, "full"}, {3, "delta"}}

// checkMetrics asserts the fleet's summed metric registries agree with the
// wire journal exactly: Σ stream_bytes{in} == delivered pull bytes,
// Σ stream_bytes{out} == delivered push bytes, and every per-kind frame
// count/byte total matches. The sums run over ALL nodes — a churned node's
// registry is frozen at its death, exactly when the journal stopped
// recording its traffic.
func (w *world) checkMetrics(rep *Report) {
	sum := func(name string, labels ...string) int64 {
		var total float64
		for _, s := range w.nodes {
			if v, ok := s.node.Metrics().Value(name, labels...); ok {
				total += v
			}
		}
		return int64(total)
	}
	rep.JournalPullBytes = w.journal.pullBytes
	rep.JournalPushBytes = w.journal.pushBytes
	rep.MetricPullBytes = sum("wmgossip_stream_bytes_total", "in")
	rep.MetricPushBytes = sum("wmgossip_stream_bytes_total", "out")

	ok := rep.MetricPullBytes == rep.JournalPullBytes && rep.MetricPushBytes == rep.JournalPushBytes
	if !ok {
		w.sc.Logf("sim: METRIC MISMATCH stream bytes: registry in=%d out=%d, journal pull=%d push=%d",
			rep.MetricPullBytes, rep.MetricPushBytes, rep.JournalPullBytes, rep.JournalPushBytes)
	}
	for _, fk := range frameKinds {
		checks := []struct {
			what    string
			metric  string
			dir     string
			journal int64
		}{
			{"frames in", "wmgossip_frames_total", "in", w.journal.pullFrames[fk.kind]},
			{"frames out", "wmgossip_frames_total", "out", w.journal.pushFrames[fk.kind]},
			{"frame bytes in", "wmgossip_frame_bytes_total", "in", w.journal.pullFrameBytes[fk.kind]},
			{"frame bytes out", "wmgossip_frame_bytes_total", "out", w.journal.pushFrameBytes[fk.kind]},
		}
		for _, c := range checks {
			if got := sum(c.metric, c.dir, fk.label); got != c.journal {
				ok = false
				w.sc.Logf("sim: METRIC MISMATCH %s %s: registry %d, journal %d", fk.label, c.what, got, c.journal)
			}
		}
	}
	rep.MetricsConsistent = ok
	if ok {
		w.sc.Logf("sim: metrics consistent: %d pull + %d push bytes match the delivery journal exactly",
			rep.JournalPullBytes, rep.JournalPushBytes)
	}
}
