package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"time"

	"wmsketch/internal/trace"
)

// Anti-entropy rounds. Each round a node publishes its local model (a new
// version only if it progressed), then, per peer:
//
//  1. POSTs its digest to the peer's /v1/cluster/pull and applies the
//     frames that come back (the peer's last published state,
//     delta-compressed where the peer still holds our acked base),
//  2. reads the peer's digest off the same response and POSTs back, via
//     /v1/cluster/push, whatever the peer is missing.
//
// One pull and at most one push per peer therefore reconcile both
// directions. A pull only reads: the peer answers from what it last
// published. A delta whose base we lack waits for the next round, whose
// pull asks for that origin in full. Rounds are independent per peer,
// failures back off exponentially per peer, and all state transfer is
// idempotent, so any interleaving of retries converges.

// maxPullBytes bounds a pull response read by the gossip client.
const maxPullBytes = 1 << 30

// PullRequest is the JSON body of POST /v1/cluster/pull.
type PullRequest struct {
	From   string           `json:"from"`
	Digest map[string]int64 `json:"digest"`
}

// PushResponse is the JSON reply to POST /v1/cluster/push.
type PushResponse struct {
	Applied  int  `json:"applied"`
	Stale    int  `json:"stale"`
	Rejected int  `json:"rejected"`
	Changed  bool `json:"changed"`
}

// peerState is the per-peer round state: liveness, backoff, and transfer
// counters.
type peerState struct {
	url string

	mu           sync.Mutex
	state        PeerLiveness // guarded by mu
	rounds       int64        // guarded by mu
	failures     int64        // guarded by mu; consecutive
	totalFails   int64        // guarded by mu
	lastError    string       // guarded by mu
	lastSuccess  time.Time    // guarded by mu
	lastOK       time.Time    // guarded by mu; last success, or boot time — the dead clock's epoch
	backoffUntil time.Time    // guarded by mu
	bytesIn      int64        // guarded by mu
	bytesOut     int64        // guarded by mu
	framesIn     int64        // guarded by mu
	framesOut    int64        // guarded by mu
	// forceFull holds the origins whose delta base this node lacked in the
	// last round: the next round's pull zeroes them in its digest, which
	// fetches them in full.
	forceFull []string // guarded by mu
}

// maxBackoff caps the per-peer retry backoff.
const maxBackoff = time.Minute

// Start launches the background gossip loop (no-op when Interval < 0 or
// there are no peers). Close stops it.
func (n *Node) Start() {
	if n.cfg.Interval < 0 || len(n.peers) == 0 {
		return
	}
	n.startOne.Do(func() {
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			t := n.cfg.Clock.NewTicker(n.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-n.stop:
					return
				case <-t.Chan():
					n.GossipOnce()
				}
			}
		}()
	})
}

// Close stops the gossip loop and waits for an in-flight round to finish.
func (n *Node) Close() {
	n.stopOne.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// GossipOnce runs one round: publish the local model, sweep the origin GC,
// then reconcile with a random sample of live peers (plus an occasional
// dead-peer probe). It returns the number of peers successfully
// reconciled. Tests and the simulator call it directly for deterministic
// rounds.
func (n *Node) GossipOnce() int {
	n.met.rounds.Inc()
	// The round span is the trace every downstream apply must link back to:
	// its ID rides the traceparent header (HTTP transport) and the stream
	// annotation (wire header), and the simulator's causal-lineage gate
	// checks applied frames against the set of round IDs minted here.
	ctx, round := n.cfg.Tracer.StartSpan(context.Background(), "gossip.round")
	n.setLastRoundTrace(trace.SpanContextOf(ctx).TraceID)
	defer round.Finish()
	if _, _, err := n.PublishLocal(); err != nil {
		n.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "publish failed",
			slog.String("error", err.Error()))
	}
	n.sweepOrigins()
	ok := 0
	for _, p := range n.samplePeers() {
		// Round latency is measured on the injected Clock: real deployments
		// observe wall time, the simulator observes virtual time (zero), so
		// a sim run stays a pure function of its seed.
		began := n.cfg.Clock.Now()
		pctx, span := n.cfg.Tracer.StartSpan(ctx, "gossip.peer")
		err := n.gossipPeer(pctx, p)
		if err != nil {
			span.SetError()
		}
		span.Finish()
		n.met.roundDur.ObserveDuration(n.cfg.Clock.Now().Sub(began))
		if err != nil {
			n.met.peerRoundFail.Inc()
			n.peerFailed(p, err)
		} else {
			n.met.peerRoundOK.Inc()
			n.peerSucceeded(p)
			ok++
		}
	}
	return ok
}

func (n *Node) peerFailed(p *peerState, err error) {
	now := n.cfg.Clock.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failures++
	p.totalFails++
	p.lastError = err.Error()
	backoff := n.cfg.Interval
	if backoff <= 0 {
		backoff = 2 * time.Second
	}
	for i := int64(1); i < p.failures && backoff < maxBackoff; i++ {
		backoff *= 2
	}
	if backoff > maxBackoff {
		backoff = maxBackoff
	}
	p.backoffUntil = now.Add(backoff)
	if st := n.classifyLocked(p, now); st != p.state {
		n.cfg.Logger.Info("peer liveness transition",
			slog.String("peer", p.url),
			slog.String("from", p.state.String()),
			slog.String("to", st.String()))
		p.state = st
		n.met.transition(st)
	}
	n.cfg.Logger.Warn("peer round failed",
		slog.String("peer", p.url),
		slog.Int64("consecutive", p.failures),
		slog.Duration("backoff", backoff.Round(time.Millisecond)),
		slog.String("error", err.Error()))
}

func (n *Node) peerSucceeded(p *peerState) {
	now := n.cfg.Clock.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state != PeerAlive {
		n.cfg.Logger.Info("peer liveness transition",
			slog.String("peer", p.url),
			slog.String("from", p.state.String()),
			slog.String("to", PeerAlive.String()))
		n.met.transition(PeerAlive)
	}
	p.state = PeerAlive
	p.rounds++
	p.failures = 0
	p.lastError = ""
	p.lastSuccess = now
	p.lastOK = now
	p.backoffUntil = time.Time{}
}

// gossipPeer reconciles with one peer: one pull, its apply, and at most
// one push back. The ctx carries the round's span (the trace every RPC
// propagates) and both RPCs share one context deadline (RPCTimeout), so a
// stalled peer costs bounded wall time.
func (n *Node) gossipPeer(ctx context.Context, p *peerState) error {
	if n.cfg.RPCTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, n.cfg.RPCTimeout)
		defer cancel()
	}
	digest := n.Digest()
	// Origins whose delta base was missing last round: zero their digest
	// entries so this round's pull fetches them in full.
	p.mu.Lock()
	for _, origin := range p.forceFull {
		digest[origin] = 0
	}
	p.forceFull = nil
	p.mu.Unlock()
	res, err := n.pull(ctx, p, digest)
	if err != nil {
		return err
	}
	// Deltas whose base we lack wait for the next round's pull.
	if len(res.NeedFull) > 0 {
		p.mu.Lock()
		p.forceFull = res.NeedFull
		p.mu.Unlock()
		n.met.retriesDeferred.Inc()
	}
	// Push back whatever the peer is missing.
	if res.TheirDigest != nil {
		frames := n.BuildFrames(res.TheirDigest, false)
		if len(frames) > 0 {
			if err := n.push(ctx, p, frames); err != nil {
				return fmt.Errorf("push: %w", err)
			}
		}
	}
	return nil
}

// pull sends our digest over the transport and applies the peer's response
// frames.
func (n *Node) pull(ctx context.Context, p *peerState, digest map[string]int64) (ApplyResult, error) {
	rc, err := n.cfg.Transport.Pull(ctx, p.url, PullRequest{From: n.cfg.Self, Digest: digest})
	if err != nil {
		return ApplyResult{}, err
	}
	defer rc.Close()
	// Decode straight off the wire — a full sync of a large model must not
	// be buffered whole just to count its bytes.
	cr := &countingReader{r: io.LimitReader(rc, maxPullBytes)}
	frames, sc, err := n.ReadFramesTraced(cr)
	if err != nil {
		return ApplyResult{}, err
	}
	// ctx already carries our round's span, so the apply nests under it; the
	// stream annotation (the peer's handler span, which itself continued our
	// round via the traceparent header) is the fallback lineage evidence when
	// this node runs untraced.
	res := n.ApplyFramesCtx(trace.ContextWithRemote(ctx, sc), frames)
	n.met.bytesIn.Add(cr.n)
	n.met.countFrames(frames, true)
	p.mu.Lock()
	p.bytesIn += cr.n
	p.framesIn += int64(len(frames))
	p.mu.Unlock()
	return res, nil
}

// countingReader tracks bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// push sends frames the peer is missing over the transport.
func (n *Node) push(ctx context.Context, p *peerState, frames []Frame) error {
	body, err := encodeStream(trace.SpanContextOf(ctx), frames)
	if err != nil {
		return err
	}
	if err := n.cfg.Transport.Push(ctx, p.url, body); err != nil {
		return err
	}
	nBytes := int64(len(body))
	n.met.bytesOut.Add(nBytes)
	n.met.countFrames(frames, false)
	p.mu.Lock()
	p.bytesOut += nBytes
	p.framesOut += int64(len(frames))
	p.mu.Unlock()
	return nil
}

// ---- status ----

// PeerStatus is one peer's round state as reported by /v1/cluster/status.
type PeerStatus struct {
	URL                 string    `json:"url"`
	State               string    `json:"state"`
	Rounds              int64     `json:"rounds"`
	ConsecutiveFailures int64     `json:"consecutive_failures"`
	TotalFailures       int64     `json:"total_failures"`
	LastError           string    `json:"last_error,omitempty"`
	LastSuccess         time.Time `json:"last_success,omitempty"`
	BackoffUntil        time.Time `json:"backoff_until,omitempty"`
	BytesIn             int64     `json:"bytes_in"`
	BytesOut            int64     `json:"bytes_out"`
	FramesIn            int64     `json:"frames_in"`
	FramesOut           int64     `json:"frames_out"`
}

// OriginStatus is one known origin's replication state.
type OriginStatus struct {
	ID      string `json:"id"`
	Version int64  `json:"version"`
	Steps   int64  `json:"steps"`
	Heavy   int    `json:"heavy"`
	// GCFactor is the origin's current mix-weight factor: 1 fresh, in
	// (0,1) on the decay ramp, 0 tombstoned.
	GCFactor float64 `json:"gc_factor"`
	// Gone marks a tombstoned origin (version retained, snapshot freed).
	Gone bool `json:"gone,omitempty"`
	// History is how many versions of the origin the node holds as delta
	// bases, the current one included: at most Config.HistoryDepth.
	History int `json:"history"`
	// StateBytes is the model state those versions take: the current one
	// in full, the older ones as reverse deltas.
	StateBytes int64 `json:"state_bytes"`
}

// Status is the /v1/cluster/status document.
type Status struct {
	Self    string         `json:"self"`
	Version int64          `json:"version"`
	Origins []OriginStatus `json:"origins"`
	Peers   []PeerStatus   `json:"peers"`

	Rounds         int64 `json:"rounds"`
	FramesIn       int64 `json:"frames_in"`
	FramesOut      int64 `json:"frames_out"`
	BytesIn        int64 `json:"bytes_in"`
	BytesOut       int64 `json:"bytes_out"`
	FullsOut       int64 `json:"fulls_out"`
	DeltasOut      int64 `json:"deltas_out"`
	FullsIn        int64 `json:"fulls_in"`
	DeltasIn       int64 `json:"deltas_in"`
	StaleDropped   int64 `json:"stale_dropped"`
	RejectedFrames int64 `json:"rejected_frames"`
	// OriginsGCed counts origins tombstoned by the age-based GC;
	// RetriesDeferred counts peer rounds that met a delta whose base this
	// node lacked and left those origins to the next round's pull, which
	// asks for them in full.
	OriginsGCed     int64 `json:"origins_gced"`
	RetriesDeferred int64 `json:"retries_deferred"`

	// Health is the membership summary also surfaced by /healthz.
	Health Health `json:"health"`
}

// Status snapshots the node's replication state. Every aggregate counter
// is read back from the metrics registry — /v1/cluster/status and /metrics
// can never disagree because they share instruments.
func (n *Node) Status() Status {
	st := Status{
		Self:            n.cfg.Self,
		Rounds:          n.met.rounds.Value(),
		FramesIn:        sumKinds(&n.met.framesIn),
		FramesOut:       sumKinds(&n.met.framesOut),
		BytesIn:         n.met.bytesIn.Value(),
		BytesOut:        n.met.bytesOut.Value(),
		FullsOut:        n.met.builtFull.Value(),
		DeltasOut:       n.met.builtDelta.Value(),
		FullsIn:         n.met.appliedFull.Value(),
		DeltasIn:        n.met.appliedDelta.Value(),
		StaleDropped:    n.met.staleDropped.Value(),
		RejectedFrames:  n.met.rejectedFrames.Value(),
		OriginsGCed:     n.met.originsGCed.Value(),
		RetriesDeferred: n.met.retriesDeferred.Value(),
		Health:          n.Health(),
	}
	now := n.cfg.Clock.Now()
	n.mu.Lock()
	ids := make([]string, 0, len(n.origins))
	for id := range n.origins {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		o := n.origins[id]
		st.Origins = append(st.Origins, OriginStatus{
			ID: o.id, Version: o.version, Steps: o.snap.Steps, Heavy: len(o.snap.Heavy),
			GCFactor: n.originFactorLocked(o, now), Gone: o.gone,
			History: o.versions(), StateBytes: o.stateBytes(),
		})
		if id == n.cfg.Self {
			st.Version = o.version
		}
	}
	n.mu.Unlock()
	for _, p := range n.peers {
		p.mu.Lock()
		st.Peers = append(st.Peers, PeerStatus{
			URL:                 p.url,
			State:               p.state.String(),
			Rounds:              p.rounds,
			ConsecutiveFailures: p.failures,
			TotalFailures:       p.totalFails,
			LastError:           p.lastError,
			LastSuccess:         p.lastSuccess,
			BackoffUntil:        p.backoffUntil,
			BytesIn:             p.bytesIn,
			BytesOut:            p.bytesOut,
			FramesIn:            p.framesIn,
			FramesOut:           p.framesOut,
		})
		p.mu.Unlock()
	}
	return st
}
