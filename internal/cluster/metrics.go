package cluster

import (
	"wmsketch/internal/obs"
)

// Gossip instrumentation. Every counter the node used to keep as an ad-hoc
// atomic now lives as a pre-registered handle in an obs.Registry, so the
// same numbers drive Status(), /v1/cluster/status, the /metrics exposition,
// and the simulator's journal-vs-registry exact-match invariant. All
// handles are resolved at construction; the gossip hot path only touches
// atomics (obs's zero-allocation contract).
//
// Direction semantics mirror the gossip client exactly:
//
//   - in:  frames/bytes this node READ off pull responses (counted only
//     after ReadFrames succeeds, so a corrupted stream counts nothing);
//   - out: frames/bytes this node WROTE into push requests (counted only
//     after the transport accepts the push).
//
// Frames a node builds while *answering* a peer's pull are credited to the
// puller's "in" counters, not the responder's "out" — byte-for-byte, wire
// traffic is counted exactly once, by its consumer. Built/applied frame
// counters (delta-vs-full economics) are kind-scoped and independent of
// direction.

// kindLabel names a frame kind for metric labels. Unknown kinds cannot
// reach the counters (ReadFrames rejects them; builders only emit the
// three).
func kindLabel(kind byte) string {
	switch kind {
	case kindDigest:
		return "digest"
	case kindFull:
		return "full"
	case kindDelta:
		return "delta"
	}
	return "other"
}

// nodeMetrics holds the node's pre-registered instrument handles. The
// struct is immutable after newNodeMetrics; the instruments themselves are
// internally synchronized.
type nodeMetrics struct {
	reg *obs.Registry

	rounds   *obs.Counter   // gossip rounds started
	roundDur *obs.Histogram // one peer reconciliation, on the injected Clock

	peerRoundOK   *obs.Counter
	peerRoundFail *obs.Counter

	bytesIn  *obs.Counter // pull-response stream bytes (incl. 36-byte header)
	bytesOut *obs.Counter // push-request stream bytes (incl. 36-byte header)

	// Indexed by frame kind byte (kindDigest..kindDelta).
	framesIn      [4]*obs.Counter
	framesOut     [4]*obs.Counter
	frameBytesIn  [4]*obs.Counter
	frameBytesOut [4]*obs.Counter

	builtFull    *obs.Counter
	builtDelta   *obs.Counter
	appliedFull  *obs.Counter
	appliedDelta *obs.Counter
	// appliedOlderBase counts the applied deltas whose base was older than
	// the origin's current version, and had to be rebuilt.
	appliedOlderBase *obs.Counter

	staleDropped    *obs.Counter
	rejectedFrames  *obs.Counter
	originsGCed     *obs.Counter
	retriesDeferred *obs.Counter

	// Indexed by PeerLiveness (alive/suspect/dead).
	transitions [3]*obs.Counter
}

func newNodeMetrics(reg *obs.Registry) *nodeMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &nodeMetrics{reg: reg}

	m.rounds = reg.Counter("wmgossip_rounds_total", "gossip rounds started")
	m.roundDur = reg.Histogram("wmgossip_round_duration_seconds",
		"one peer reconciliation (pull, apply, push back), measured on the injected clock",
		obs.LatencyBuckets)

	results := reg.CounterVec("wmgossip_peer_rounds_total",
		"peer reconciliations by outcome", "result")
	m.peerRoundOK = results.With("ok")
	m.peerRoundFail = results.With("fail")

	streamBytes := reg.CounterVec("wmgossip_stream_bytes_total",
		"gossip stream bytes counted by the client (header included)", "dir")
	m.bytesIn = streamBytes.With("in")
	m.bytesOut = streamBytes.With("out")

	frames := reg.CounterVec("wmgossip_frames_total",
		"frames read from pulls (in) and written to pushes (out), by kind", "dir", "kind")
	frameBytes := reg.CounterVec("wmgossip_frame_bytes_total",
		"encoded frame bytes by direction and kind (excludes the stream header)", "dir", "kind")
	for _, kind := range []byte{kindDigest, kindFull, kindDelta} {
		m.framesIn[kind] = frames.With("in", kindLabel(kind))
		m.framesOut[kind] = frames.With("out", kindLabel(kind))
		m.frameBytesIn[kind] = frameBytes.With("in", kindLabel(kind))
		m.frameBytesOut[kind] = frameBytes.With("out", kindLabel(kind))
	}

	built := reg.CounterVec("wmgossip_frames_built_total",
		"state frames assembled for peers (pull answers and pushes), by kind", "kind")
	m.builtFull = built.With("full")
	m.builtDelta = built.With("delta")
	applied := reg.CounterVec("wmgossip_frames_applied_total",
		"state frames adopted into the origin table, by kind", "kind")
	m.appliedFull = applied.With("full")
	m.appliedDelta = applied.With("delta")
	m.appliedOlderBase = reg.Counter("wmgossip_delta_older_base_total",
		"delta frames adopted on a version older than the origin's current one, rebuilt from reverse deltas")
	reg.GaugeFunc("wmgossip_delta_built_ratio",
		"fraction of built state frames that were deltas (the compression win)",
		func() float64 {
			d, f := float64(m.builtDelta.Value()), float64(m.builtFull.Value())
			if d+f == 0 {
				return 0
			}
			return d / (d + f)
		})

	m.staleDropped = reg.Counter("wmgossip_stale_frames_total",
		"frames dropped because the held version was not older (own origin included)")
	m.rejectedFrames = reg.Counter("wmgossip_rejected_frames_total",
		"frames refused by validation (bad kind, newer own origin, geometry, decode)")
	m.originsGCed = reg.Counter("wmgossip_origins_gced_total",
		"origins tombstoned by the age-based GC")
	m.retriesDeferred = reg.Counter("wmgossip_retries_deferred_total",
		"peer rounds that met a delta with a missing base and left its origin to the next round's pull, in full")

	trans := reg.CounterVec("wmgossip_peer_transitions_total",
		"peer membership transitions, by destination state", "to")
	for st := PeerAlive; st <= PeerDead; st++ {
		m.transitions[st] = trans.With(st.String())
	}
	return m
}

// transition records one peer membership state change.
func (m *nodeMetrics) transition(to PeerLiveness) {
	if to >= PeerAlive && to <= PeerDead {
		m.transitions[to].Inc()
	}
}

// countFrames attributes a delivered frame list to one direction's
// per-kind counters.
func (m *nodeMetrics) countFrames(frames []Frame, in bool) {
	counts, sizes := &m.framesOut, &m.frameBytesOut
	if in {
		counts, sizes = &m.framesIn, &m.frameBytesIn
	}
	for i := range frames {
		k := frames[i].Kind
		if int(k) >= len(counts) || counts[k] == nil {
			continue
		}
		counts[k].Inc()
		sizes[k].Add(frames[i].WireBytes)
	}
}

// sumKinds totals a per-kind counter bank (the aggregate Status fields).
func sumKinds(bank *[4]*obs.Counter) int64 {
	var total int64
	for _, c := range bank {
		if c != nil {
			total += c.Value()
		}
	}
	return total
}

// Metrics returns the registry backing this node's instrumentation — the
// node's own when Config.Registry was nil, the shared one otherwise.
func (n *Node) Metrics() *obs.Registry { return n.met.reg }
