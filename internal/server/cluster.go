package server

import (
	"fmt"
	"net/http"
	"time"

	"wmsketch/internal/cluster"
	"wmsketch/internal/core"
	"wmsketch/internal/trace"
)

// Cluster wiring: wmserve nodes replicate model state peer-to-peer and
// serve queries from the merged view (CLUSTER.md). The server owns the
// cluster.Node, exposes its pull/push/status endpoints, and hands it a
// snapshotter that always reflects the *current* backend (checkpoint
// restores swap the backend under the node without re-wiring).

// ClusterOptions configures replication; it is enabled when Peers is
// non-empty.
type ClusterOptions struct {
	// Self is this node's unique id; conventionally its advertised URL.
	// Required when Peers is set.
	Self string
	// Peers are the base URLs of the gossip partners.
	Peers []string
	// Interval is the gossip cadence (0 → 2s, negative → manual rounds
	// only).
	Interval time.Duration
	// HistoryDepth is how many snapshot versions are retained as delta
	// bases (0 → 8).
	HistoryDepth int
	// GossipTimeout bounds one peer round's RPCs with a shared context
	// deadline (0 → 10s, negative disables the deadline).
	GossipTimeout time.Duration
	// Fanout is how many peers each gossip round samples (0 → ⌈log₂(N+1)⌉
	// floored at 3, negative → full sweep).
	Fanout int
	// OriginGCAfter is the idle age past which a departed origin's mix
	// weight starts decaying (0 → 15m, negative disables origin GC);
	// OriginGCDecay is the decay ramp width (0 → OriginGCAfter/2).
	OriginGCAfter time.Duration
	OriginGCDecay time.Duration
}

func (o *ClusterOptions) enabled() bool { return len(o.Peers) > 0 }

// backendSnapshotter adapts the server's swappable backend to
// core.Snapshotter.
type backendSnapshotter struct{ s *Server }

func (bs backendSnapshotter) ModelSnapshot() (sn core.Snapshot, err error) {
	bs.s.withBackend(func(b learner) { sn, err = b.ModelSnapshot() })
	return sn, err
}

func (bs backendSnapshotter) Steps() (steps int64) {
	bs.s.withBackend(func(b learner) { steps = b.Steps() })
	return steps
}

// startCluster builds and starts the cluster node. Called from New.
func (s *Server) startCluster() error {
	if s.opt.Cluster.Self == "" {
		return fmt.Errorf("server: cluster mode requires a node id (-node-id)")
	}
	n, err := cluster.NewNode(cluster.Config{
		Self:  s.opt.Cluster.Self,
		Peers: s.opt.Cluster.Peers,
		Mix: core.MixOptions{
			Depth: s.opt.Config.Depth, Width: s.opt.Config.Width,
			Seed: s.opt.Config.Seed, HeapSize: s.opt.Config.HeapSize,
		},
		Local:         backendSnapshotter{s},
		Interval:      s.opt.Cluster.Interval,
		HistoryDepth:  s.opt.Cluster.HistoryDepth,
		AuthToken:     s.opt.AuthToken,
		RPCTimeout:    s.opt.Cluster.GossipTimeout,
		Fanout:        s.opt.Cluster.Fanout,
		OriginGCAfter: s.opt.Cluster.OriginGCAfter,
		OriginGCDecay: s.opt.Cluster.OriginGCDecay,
		Registry:      s.met.reg,
		Logger:        s.logger,
		Tracer:        s.tracer,
	})
	if err != nil {
		return err
	}
	s.cluster = n
	n.Start()
	return nil
}

// ClusterNode exposes the node for tests that drive gossip rounds
// deterministically; nil when cluster mode is off.
func (s *Server) ClusterNode() *cluster.Node { return s.cluster }

// publishRestored pushes a just-restored backend into the cluster view
// (no-op outside cluster mode). Versions are example counts, so a restore
// to an *older* model cannot be published — the merged view keeps serving
// the newer pre-restore state, and the returned warning says so instead
// of letting the backend and the served view diverge silently.
func (s *Server) publishRestored() (warning string, err error) {
	if s.cluster == nil {
		return "", nil
	}
	_, published, err := s.cluster.PublishLocal()
	if err != nil {
		return "", err
	}
	if !published {
		return "restored model was not published to the cluster: its example count does not " +
			"exceed the version this node already announced, so cluster queries keep serving " +
			"the newer state (to roll a cluster back, restore on every node or rejoin under a fresh -node-id)", nil
	}
	return "", nil
}

// handleClusterPull answers a peer's digest with the frames it is missing,
// our own digest leading so the peer can push back what we lack.
func (s *Server) handleClusterPull(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, "cluster mode is not enabled")
		return
	}
	var req cluster.PullRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// Publish before answering so a pull always sees our latest local
	// state, even between gossip rounds.
	if _, _, err := s.cluster.PublishLocal(); err != nil {
		writeError(w, http.StatusInternalServerError, "publish: %v", err)
		return
	}
	frames := s.cluster.BuildFrames(req.Digest, true)
	w.Header().Set("Content-Type", "application/octet-stream")
	// Stamp the response stream with this handler's span — which continued
	// the puller's round trace via its traceparent header — so the apply on
	// the far side stays causally linked even off-HTTP.
	sc := trace.SpanContextOf(r.Context())
	if _, err := cluster.WriteFramesTraced(w, sc, frames); err != nil {
		// Mid-stream failure: abort the connection, the peer retries.
		panic(http.ErrAbortHandler)
	}
}

// handleClusterPush ingests frames a peer decided we are missing.
func (s *Server) handleClusterPush(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, "cluster mode is not enabled")
		return
	}
	if !s.authorized(w, r) {
		return
	}
	frames, sc, err := cluster.ReadFramesTraced(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad frame stream: %v", err)
		return
	}
	// r.Context() already continues the pusher's round via traceparent; the
	// stream annotation is the fallback when the header was stripped.
	res := s.cluster.ApplyFramesCtx(trace.ContextWithRemote(r.Context(), sc), frames)
	writeJSON(w, http.StatusOK, cluster.PushResponse{
		Applied: res.Applied, Stale: res.Stale, Rejected: res.Rejected, Changed: res.Changed,
	})
}

// handleClusterStatus reports replication state: known origins and their
// versions, per-peer round health, and transfer counters.
func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotFound, "cluster mode is not enabled")
		return
	}
	writeJSON(w, http.StatusOK, s.cluster.Status())
}
