package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"maps"
	"sync"
	"testing"
	"time"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
)

// newFakeClock is the manually-advanced clock injected via Config.Clock.
func newFakeClock() *VirtualClock {
	return NewVirtualClock(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
}

// stubTransport answers every pull with an empty digest frame (a peer that
// knows nothing) and accepts every push — unless failing is set, in which
// case everything errors. It counts attempts per peer URL.
type stubTransport struct {
	mu       sync.Mutex
	failing  bool
	attempts map[string]int
}

func newStubTransport() *stubTransport {
	return &stubTransport{attempts: make(map[string]int)}
}

func (s *stubTransport) setFailing(v bool) {
	s.mu.Lock()
	s.failing = v
	s.mu.Unlock()
}

func (s *stubTransport) attemptsTo(url string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attempts[url]
}

func (s *stubTransport) Pull(ctx context.Context, peerURL string, req PullRequest) (io.ReadCloser, error) {
	s.mu.Lock()
	s.attempts[peerURL]++
	failing := s.failing
	s.mu.Unlock()
	if failing {
		return nil, fmt.Errorf("stub: %s unreachable", peerURL)
	}
	var buf bytes.Buffer
	if _, err := WriteFrames(&buf, []Frame{{Kind: kindDigest, Digest: map[string]int64{}}}); err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(buf.Bytes())), nil
}

func (s *stubTransport) Push(ctx context.Context, peerURL string, frames []byte) error {
	s.mu.Lock()
	failing := s.failing
	s.mu.Unlock()
	if failing {
		return fmt.Errorf("stub: %s unreachable", peerURL)
	}
	return nil
}

// clockedNode builds a node on a fake clock and stub transport with the
// given peers and membership knobs.
func clockedNode(t *testing.T, clock *VirtualClock, tr Transport, peers []string, tweak func(*Config)) *Node {
	t.Helper()
	cfg := clusterConfig()
	l := core.NewAWMSketch(cfg)
	for _, ex := range datagen.RCV1Like(11).Take(50) {
		l.Update(ex.X, ex.Y)
	}
	c := Config{
		Self:      "self",
		Peers:     peers,
		Mix:       mixOpt(cfg),
		Local:     l,
		Interval:  -1,
		Clock:     clock,
		Transport: tr,
		Seed:      1,
		Logger:    testLogger(t),
	}
	if tweak != nil {
		tweak(&c)
	}
	n, err := NewNode(c)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// advancePastBackoff moves the clock beyond the peer's current backoff
// deadline.
func advancePastBackoff(clock *VirtualClock, p *peerState) {
	p.mu.Lock()
	until := p.backoffUntil
	p.mu.Unlock()
	if wait := until.Sub(clock.Now()); wait > 0 {
		clock.Advance(wait + time.Millisecond)
	}
}

// TestBackoffGrowsToMaxAndResetsOnSuccess: consecutive failures double the
// backoff window up to maxBackoff; one success fully resets it.
func TestBackoffGrowsToMaxAndResetsOnSuccess(t *testing.T) {
	clock := newFakeClock()
	tr := newStubTransport()
	tr.setFailing(true)
	// DeadAfter huge so this test sees pure backoff, no dead promotion.
	n := clockedNode(t, clock, tr, []string{"p1"}, func(c *Config) { c.DeadAfter = 24 * time.Hour })
	p := n.peers[0]

	wantBackoffs := []time.Duration{
		2 * time.Second, 4 * time.Second, 8 * time.Second, 16 * time.Second,
		32 * time.Second, time.Minute, time.Minute,
	}
	for i, want := range wantBackoffs {
		advancePastBackoff(clock, p)
		if got := n.GossipOnce(); got != 0 {
			t.Fatalf("round %d: %d successes from a failing transport", i, got)
		}
		p.mu.Lock()
		got := p.backoffUntil.Sub(clock.Now())
		fails := p.failures
		p.mu.Unlock()
		if got != want {
			t.Fatalf("after %d failures: backoff %v, want %v", fails, got, want)
		}
	}

	// A single success resets the window completely.
	tr.setFailing(false)
	advancePastBackoff(clock, p)
	if got := n.GossipOnce(); got != 1 {
		t.Fatalf("recovery round reconciled %d peers, want 1", got)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.failures != 0 || !p.backoffUntil.IsZero() || p.state != PeerAlive {
		t.Fatalf("success did not reset peer: failures=%d backoffUntil=%v state=%v",
			p.failures, p.backoffUntil, p.state)
	}
}

// TestSuspectPromotionAndRecovery: SuspectAfter consecutive failures mark
// the peer suspect; a suspect peer stays in the sampling pool and one
// success returns it to alive.
func TestSuspectPromotionAndRecovery(t *testing.T) {
	clock := newFakeClock()
	tr := newStubTransport()
	tr.setFailing(true)
	n := clockedNode(t, clock, tr, []string{"p1"}, func(c *Config) {
		c.SuspectAfter = 3
		c.DeadAfter = 24 * time.Hour
	})
	p := n.peers[0]

	for i := 0; i < 3; i++ {
		advancePastBackoff(clock, p)
		n.GossipOnce()
	}
	h := n.Health()
	if h.PeersSuspect != 1 || h.PeersAlive != 0 {
		t.Fatalf("after 3 failures: health %+v, want 1 suspect", h)
	}

	// Suspect peers must keep being sampled, or they could never recover.
	before := tr.attemptsTo("p1")
	tr.setFailing(false)
	advancePastBackoff(clock, p)
	if got := n.GossipOnce(); got != 1 {
		t.Fatalf("suspect peer not reconciled: %d successes", got)
	}
	if tr.attemptsTo("p1") != before+1 {
		t.Fatalf("suspect peer was not sampled")
	}
	if h := n.Health(); h.PeersAlive != 1 || h.PeersSuspect != 0 {
		t.Fatalf("recovery did not restore alive: %+v", h)
	}
}

// TestDeadPeerLeavesSamplingAndRejoins: a peer failing past DeadAfter is
// declared dead, leaves the per-round sample (probed only occasionally),
// and rejoins as alive on a successful probe.
func TestDeadPeerLeavesSamplingAndRejoins(t *testing.T) {
	clock := newFakeClock()
	tr := newStubTransport()
	tr.setFailing(true)
	n := clockedNode(t, clock, tr, []string{"p1"}, func(c *Config) {
		c.SuspectAfter = 2
		c.DeadAfter = 30 * time.Second
	})
	p := n.peers[0]

	// Fail until the DeadAfter clock runs out.
	for clock.Now().Sub(func() time.Time { p.mu.Lock(); defer p.mu.Unlock(); return p.lastOK }()) < 31*time.Second {
		advancePastBackoff(clock, p)
		n.GossipOnce()
	}
	if h := n.Health(); h.PeersDead != 1 {
		t.Fatalf("peer not promoted to dead: %+v", h)
	}

	// Dead peers are probed with probability deadProbeProb, not swept every
	// round: over many rounds the attempt rate must sit well under 100%.
	start := tr.attemptsTo("p1")
	const rounds = 200
	for i := 0; i < rounds; i++ {
		advancePastBackoff(clock, p)
		n.GossipOnce()
	}
	probes := tr.attemptsTo("p1") - start
	if probes == 0 {
		t.Fatalf("dead peer was never probed; it could never rejoin")
	}
	if probes > rounds/2 {
		t.Fatalf("dead peer probed %d/%d rounds; sampling is not excluding it", probes, rounds)
	}

	// A successful probe rejoins the peer as alive.
	tr.setFailing(false)
	for i := 0; i < 100; i++ {
		advancePastBackoff(clock, p)
		if n.GossipOnce() == 1 {
			break
		}
	}
	if h := n.Health(); h.PeersAlive != 1 || h.PeersDead != 0 {
		t.Fatalf("dead peer did not rejoin after success: %+v", h)
	}
}

// TestHealthDegradedBit: fewer than half the peers alive flips Degraded.
func TestHealthDegradedBit(t *testing.T) {
	clock := newFakeClock()
	tr := newStubTransport()
	n := clockedNode(t, clock, tr, []string{"p1", "p2"}, func(c *Config) {
		c.SuspectAfter = 1
		c.DeadAfter = 10 * time.Second
	})
	if h := n.Health(); h.Degraded {
		t.Fatalf("healthy cluster reports degraded: %+v", h)
	}
	// Kill both peers long enough to go dead.
	tr.setFailing(true)
	for i := 0; i < 10; i++ {
		clock.Advance(5 * time.Second)
		for _, p := range n.peers {
			p.mu.Lock()
			p.backoffUntil = time.Time{}
			p.mu.Unlock()
		}
		n.GossipOnce()
	}
	h := n.Health()
	if !h.Degraded || h.PeersDead != 2 {
		t.Fatalf("dead fleet not reported degraded: %+v", h)
	}
}

// TestAutoFanoutSamplesLogOfPeers: with many healthy peers, one round
// touches only the O(log N) sample, not the full set.
func TestAutoFanoutSamplesLogOfPeers(t *testing.T) {
	clock := newFakeClock()
	tr := newStubTransport()
	peers := make([]string, 32)
	for i := range peers {
		peers[i] = fmt.Sprintf("p%02d", i)
	}
	n := clockedNode(t, clock, tr, peers, nil)
	if got := n.GossipOnce(); got != autoFanout(len(peers)) {
		t.Fatalf("round reconciled %d peers, want fanout %d", got, autoFanout(len(peers)))
	}
	total := 0
	for _, u := range peers {
		total += tr.attemptsTo(u)
	}
	if total != autoFanout(len(peers)) {
		t.Fatalf("round attempted %d RPCs, want %d", total, autoFanout(len(peers)))
	}
	// Negative fanout forces the historical full sweep.
	n2 := clockedNode(t, clock, newStubTransport(), peers, func(c *Config) { c.Fanout = -1 })
	if got := n2.GossipOnce(); got != len(peers) {
		t.Fatalf("full-sweep round reconciled %d peers, want %d", got, len(peers))
	}
}

// TestOriginGCDecayAndTombstone: an origin that stops advancing fades out
// of the mix (weight ramps to zero), is tombstoned, stops being offered to
// peers, and revives on a genuinely newer version.
func TestOriginGCDecayAndTombstone(t *testing.T) {
	clock := newFakeClock()
	a := clockedNode(t, clock, newStubTransport(), nil, func(c *Config) {
		c.OriginGCAfter = time.Minute
		c.OriginGCDecay = time.Minute
	})
	b := newMember(t, "node-b")
	train(b, datagen.RCV1Like(9).Take(400))
	if _, _, err := b.node.PublishLocal(); err != nil {
		t.Fatal(err)
	}
	frames := b.node.BuildFrames(map[string]int64{}, false)
	if res := a.ApplyFrames(frames); res.Applied != 1 {
		t.Fatalf("apply: %+v", res)
	}
	if w := a.OriginMixWeights()["node-b"]; w != 400 {
		t.Fatalf("fresh origin weight %v, want 400", w)
	}

	// Mid-ramp: half the decay window past GCAfter → half weight.
	clock.Advance(time.Minute + 30*time.Second)
	if w := a.OriginMixWeights()["node-b"]; w <= 190 || w >= 210 {
		t.Fatalf("mid-decay weight %v, want ≈200", w)
	}

	// Fully decayed: swept to a tombstone, zero weight, absent from frames.
	clock.Advance(31 * time.Second)
	a.GossipOnce() // runs the sweep (no peers, so no RPCs)
	if w := a.OriginMixWeights()["node-b"]; w != 0 {
		t.Fatalf("decayed origin still weighs %v", w)
	}
	st := a.Status()
	var ob *OriginStatus
	for i := range st.Origins {
		if st.Origins[i].ID == "node-b" {
			ob = &st.Origins[i]
		}
	}
	if ob == nil || !ob.Gone || ob.GCFactor != 0 {
		t.Fatalf("origin not tombstoned: %+v", ob)
	}
	if ob.Version != 400 {
		t.Fatalf("tombstone lost the version: %+v", ob)
	}
	if fs := a.BuildFrames(map[string]int64{}, false); len(fs) != 1 {
		t.Fatalf("tombstoned origin still offered to peers: %d frames", len(fs))
	}
	// The served view must now equal mixing self alone.
	sn, err := a.cfg.Local.ModelSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	sn.Origin = "self"
	sn.Heavy = append([]stream.Weighted(nil), sn.Heavy...)
	stream.SortWeighted(sn.Heavy)
	want, err := core.MixSnapshots([]core.Snapshot{sn}, a.cfg.Mix)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 1024; i++ {
		if got, w := a.View().Estimate(i), want.Estimate(i); got != w {
			t.Fatalf("Estimate(%d) after GC: %v, want self-only %v", i, got, w)
		}
	}

	// Revival: a newer version of node-b is adopted at full weight.
	train(b, datagen.RCV1Like(10).Take(100))
	if _, _, err := b.node.PublishLocal(); err != nil {
		t.Fatal(err)
	}
	frames = b.node.BuildFrames(map[string]int64{"node-b": 400}, false)
	// The tombstone freed the delta base, so only a full frame can apply.
	res := a.ApplyFrames(frames)
	if len(res.NeedFull) == 1 {
		full := b.node.BuildFrames(map[string]int64{"node-b": 0}, false)
		res = a.ApplyFrames(full)
	}
	if res.Applied != 1 {
		t.Fatalf("revival apply: %+v", res)
	}
	if w := a.OriginMixWeights()["node-b"]; w != 500 {
		t.Fatalf("revived origin weight %v, want 500", w)
	}
}

// TestInlineRetryCapped: a round that meets a delta whose base the node
// lacks makes no second pull. It counts in retriesDeferred, and the next
// round's one pull asks for that origin in full: its digest carries the
// origin at 0.
func TestInlineRetryCapped(t *testing.T) {
	clock := newFakeClock()
	// needFullTransport answers a pull whose digest does not zero "ghost"
	// with a delta whose base the node cannot have, forcing NeedFull, and a
	// zeroed one cleanly, so the origin flaps every other round.
	tr := &needFullTransport{}
	n := clockedNode(t, clock, tr, []string{"pb"}, nil)
	for round := 1; round <= 6; round++ {
		advancePastBackoff(clock, n.peers[0])
		deferred := n.met.retriesDeferred.Value()
		if ok := n.GossipOnce(); ok != 1 {
			t.Fatalf("round %d reconciled %d peers, want 1", round, ok)
		}
		tr.mu.Lock()
		pulls, digest := tr.pulls, tr.digest
		tr.mu.Unlock()
		if pulls != round {
			t.Fatalf("%d rounds cost %d pulls, want one a round", round, pulls)
		}
		v, named := digest["ghost"]
		forced := named && v == 0
		if want := round%2 == 0; forced != want {
			t.Fatalf("round %d: digest carries ghost at 0: %v, want %v (digest %v)", round, forced, want, digest)
		}
		// Odd rounds meet NeedFull; even ones fetch the full it asked for.
		if got := n.met.retriesDeferred.Value() - deferred; got != int64(round%2) {
			t.Fatalf("round %d deferred %d, want %d", round, got, round%2)
		}
	}
	if got := n.Status().RetriesDeferred; got != 3 {
		t.Fatalf("status reports %d deferred rounds, want 3", got)
	}
}

// needFullTransport forges pull responses containing a delta frame with an
// unknown base, so the puller reports NeedFull; a pull whose digest zeroes
// that origin gets an empty digest-only answer (the origin "flaps"
// forever). It keeps the digest of the last pull.
type needFullTransport struct {
	mu     sync.Mutex
	pulls  int
	digest map[string]int64
}

func (s *needFullTransport) Pull(ctx context.Context, peerURL string, req PullRequest) (io.ReadCloser, error) {
	s.mu.Lock()
	s.pulls++
	s.digest = maps.Clone(req.Digest)
	s.mu.Unlock()
	frames := []Frame{{Kind: kindDigest, Digest: map[string]int64{}}}
	if v, zeroed := req.Digest["ghost"]; !zeroed || v != 0 {
		// No zeroed entry: send a delta for an origin the puller has never
		// seen in full, at a base it cannot hold.
		frames = append(frames, Frame{
			Kind: kindDelta, Origin: "ghost", Version: 100, Base: 50, Scale: 1,
		})
	}
	var buf bytes.Buffer
	if _, err := WriteFrames(&buf, frames); err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(buf.Bytes())), nil
}

func (s *needFullTransport) Push(ctx context.Context, peerURL string, frames []byte) error {
	return nil
}
