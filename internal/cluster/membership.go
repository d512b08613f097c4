package cluster

import (
	"log/slog"
	"math/bits"
	"time"

	"wmsketch/internal/core"
)

// Membership: every peer carries a liveness state derived from its round
// history, and every origin (peers and transitively-learned nodes alike)
// carries an idle age that eventually garbage-collects it out of the mix.
//
//	alive ──failures ≥ SuspectAfter──▶ suspect ──no success for DeadAfter──▶ dead
//	  ▲                                  │                                    │
//	  └────────────── one success ───────┴──── occasional probe succeeds ─────┘
//
// Alive and suspect peers stay in the per-round sampling pool (a suspect
// peer must keep being tried or it could never recover); dead peers leave
// the pool and are only probed occasionally, so a departed node costs one
// speculative RPC every few rounds instead of a timeout every round.
//
// Origins are GC'd by age, independently of peer liveness (most origins are
// not direct peers — their state arrived transitively). An origin whose
// version has not advanced for OriginGCAfter starts losing mix weight
// linearly over OriginGCDecay, hits zero, and is tombstoned: its snapshot
// memory is freed, its version is retained so peers cannot gossip the dead
// state back, and a genuinely newer version (a restarted node with the same
// id restoring its checkpoint) revives it. Each node ages origins on its
// own clock, so during the decay ramp two nodes' views may differ slightly;
// once the origin is fully collected (or fully fresh) views agree again.

// PeerLiveness is a peer's membership state.
type PeerLiveness int8

const (
	// PeerAlive peers reconcile normally.
	PeerAlive PeerLiveness = iota
	// PeerSuspect peers have failed SuspectAfter consecutive rounds; they
	// remain in the sampling pool but are one DeadAfter window from dead.
	PeerSuspect
	// PeerDead peers have not succeeded for DeadAfter; they leave the
	// sampling pool and are probed occasionally for rejoin.
	PeerDead
)

func (s PeerLiveness) String() string {
	switch s {
	case PeerAlive:
		return "alive"
	case PeerSuspect:
		return "suspect"
	case PeerDead:
		return "dead"
	default:
		return "unknown"
	}
}

// deadProbeProb is the per-round probability that one dead peer is sampled
// anyway, so a rejoining node is noticed without sweeping every corpse.
const deadProbeProb = 0.2

// classifyLocked derives p's liveness from its failure history. Caller
// holds p.mu.
func (n *Node) classifyLocked(p *peerState, now time.Time) PeerLiveness {
	if p.failures == 0 {
		return PeerAlive
	}
	if now.Sub(p.lastOK) >= n.cfg.DeadAfter {
		return PeerDead
	}
	if p.failures >= int64(n.cfg.SuspectAfter) {
		return PeerSuspect
	}
	return PeerAlive
}

// autoFanout is the default per-round sample size: ⌈log₂(N+1)⌉ with a floor
// of 3, so small clusters keep full sweeps and large ones pay O(log N)
// RPCs per round while rumors still spread in O(log N) rounds.
func autoFanout(total int) int {
	f := bits.Len(uint(total)) // ⌈log₂(total+1)⌉ for total ≥ 1
	if f < 3 {
		f = 3
	}
	if f > total {
		f = total
	}
	return f
}

// samplePeers refreshes every peer's liveness and picks this round's
// targets: a seeded random sample of Fanout alive/suspect peers whose
// backoff has passed, plus (with probability deadProbeProb) one dead peer
// as a rejoin probe.
func (n *Node) samplePeers() []*peerState {
	now := n.cfg.Clock.Now()
	var pool, deadPool []*peerState
	for _, p := range n.peers {
		p.mu.Lock()
		st := n.classifyLocked(p, now)
		if st != p.state {
			n.cfg.Logger.Info("peer liveness transition",
				slog.String("peer", p.url),
				slog.String("from", p.state.String()),
				slog.String("to", st.String()))
			p.state = st
			n.met.transition(st)
		}
		ready := !now.Before(p.backoffUntil)
		p.mu.Unlock()
		if !ready {
			continue
		}
		if st == PeerDead {
			deadPool = append(deadPool, p)
		} else {
			pool = append(pool, p)
		}
	}
	k := n.cfg.Fanout
	if k < 0 || k > len(n.peers) {
		k = len(n.peers)
	} else if k == 0 {
		k = autoFanout(len(n.peers))
	}
	n.rmu.Lock()
	n.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	var probe *peerState
	if len(deadPool) > 0 && n.rng.Float64() < deadProbeProb {
		probe = deadPool[n.rng.Intn(len(deadPool))]
	}
	n.rmu.Unlock()
	if len(pool) > k {
		pool = pool[:k]
	}
	if probe != nil {
		pool = append(pool, probe)
	}
	return pool
}

// gcFactor maps an origin's idle age to its mix-weight factor: full weight
// inside the GC window, a linear ramp to zero across the decay window,
// zero after.
func gcFactor(age, after, decay time.Duration) float64 {
	if age <= after {
		return 1
	}
	if decay <= 0 || age >= after+decay {
		return 0
	}
	return 1 - float64(age-after)/float64(decay)
}

// originFactorLocked is o's current mix-weight factor. The node's own
// origin never decays (it is trivially alive), and a tombstoned origin is
// pinned at zero. Caller holds n.mu.
func (n *Node) originFactorLocked(o *originState, now time.Time) float64 {
	if o.gone {
		return 0
	}
	if o.id == n.cfg.Self || n.cfg.OriginGCAfter < 0 {
		return 1
	}
	return gcFactor(now.Sub(o.lastAdvance), n.cfg.OriginGCAfter, n.cfg.OriginGCDecay)
}

// quantizeFactor buckets a factor so the view is only rebuilt when the
// decay ramp has moved perceptibly, not on every clock tick.
func quantizeFactor(f float64) uint8 {
	if f <= 0 {
		return 0
	}
	if f >= 1 {
		return 64
	}
	return uint8(f * 64)
}

// sweepOrigins tombstones fully-decayed origins (freeing their snapshot
// memory, keeping their version so peers cannot gossip the dead state
// back) and marks the view dirty whenever any origin's decay factor has
// moved since the last rebuild. Called once per gossip round.
func (n *Node) sweepOrigins() {
	now := n.cfg.Clock.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	dirty := false
	for _, o := range n.origins {
		f := n.originFactorLocked(o, now)
		if f <= 0 && !o.gone {
			o.gone = true
			o.snap = core.Snapshot{}
			o.history = nil
			o.built = nil
			n.met.originsGCed.Inc()
			n.cfg.Logger.Info("origin idle past the GC window; dropped from the mix",
				slog.String("origin", o.id),
				slog.Int64("tombstone_version", o.version))
			dirty = true
		} else if quantizeFactor(f) != o.factorQ {
			dirty = true
		}
	}
	if dirty {
		n.viewDirty.Store(true)
	}
}

// Health is the node-level liveness summary surfaced by /healthz and
// /v1/cluster/status.
type Health struct {
	PeersTotal   int `json:"peers_total"`
	PeersAlive   int `json:"peers_alive"`
	PeersSuspect int `json:"peers_suspect"`
	PeersDead    int `json:"peers_dead"`
	// OriginsGCed counts origins tombstoned by the age-based GC.
	OriginsGCed int64 `json:"origins_gced"`
	// Degraded is set when fewer than half the configured peers are alive:
	// the node keeps serving, but its merged view may be stale or
	// partitioned and callers deserve to know.
	Degraded bool `json:"degraded"`
	// LastSuccess is the most recent successful peer round across all
	// peers (zero before the first success).
	LastSuccess time.Time `json:"last_success,omitempty"`
	// LastGossipUnix maps each peer URL to the unix time of its last
	// successful round (0 before the first success) — the per-peer
	// freshness signal /healthz surfaces for dashboards and probes.
	LastGossipUnix map[string]int64 `json:"last_gossip_unix,omitempty"`
}

// Health classifies every peer at the current clock and summarizes.
func (n *Node) Health() Health {
	now := n.cfg.Clock.Now()
	h := Health{PeersTotal: len(n.peers), OriginsGCed: n.met.originsGCed.Value()}
	if len(n.peers) > 0 {
		h.LastGossipUnix = make(map[string]int64, len(n.peers))
	}
	for _, p := range n.peers {
		p.mu.Lock()
		st := n.classifyLocked(p, now)
		if p.lastSuccess.After(h.LastSuccess) {
			h.LastSuccess = p.lastSuccess
		}
		if p.lastSuccess.IsZero() {
			h.LastGossipUnix[p.url] = 0
		} else {
			h.LastGossipUnix[p.url] = p.lastSuccess.Unix()
		}
		p.mu.Unlock()
		switch st {
		case PeerAlive:
			h.PeersAlive++
		case PeerSuspect:
			h.PeersSuspect++
		case PeerDead:
			h.PeersDead++
		}
	}
	h.Degraded = h.PeersTotal > 0 && 2*h.PeersAlive < h.PeersTotal
	return h
}
