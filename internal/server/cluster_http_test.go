package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/stream"
)

// clusterServers boots n servers configured from opt, wired as a full mesh
// over httptest listeners, gossip driven manually. connState, when set,
// observes every listener's connections.
func clusterServers(t testing.TB, n int, opt Options, connState func(net.Conn, http.ConnState)) ([]*Server, []*httptest.Server) {
	t.Helper()
	// Reserve listeners first so every node knows all URLs up front.
	https := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range https {
		https[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + https[i].Listener.Addr().String()
	}
	srvs := make([]*Server, n)
	for i := range srvs {
		opt := opt
		opt.CheckpointPath = filepath.Join(t.TempDir(), "node.ckpt")
		opt.Cluster = ClusterOptions{
			Self:     urls[i],
			Peers:    append(append([]string{}, urls[:i]...), urls[i+1:]...),
			Interval: -1,
		}
		srv, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = srv
		https[i].Config.Handler = srv
		https[i].Config.ConnState = connState
		https[i].Start()
	}
	t.Cleanup(func() {
		for i := range srvs {
			https[i].Close()
			_ = srvs[i].Close()
		}
	})
	return srvs, https
}

// TestClusterOverHTTPConverges: three real servers, disjoint training,
// gossip over the actual endpoints until every node serves the identical
// merged view.
func TestClusterOverHTTPConverges(t *testing.T) {
	srvs, https := clusterServers(t, 3, testOptions(t, BackendAWM), nil)
	gen := datagen.RCV1Like(23)
	data := gen.Take(1800)
	for i, hs := range https {
		part := make([]stream.Example, 0, 600)
		for j := i; j < len(data); j += 3 {
			part = append(part, data[j])
		}
		if code := doJSON(t, "POST", hs.URL+"/v1/update", UpdateRequest{Examples: toWire(part)}, nil); code != 200 {
			t.Fatalf("node %d update: HTTP %d", i, code)
		}
		doJSON(t, "POST", hs.URL+"/v1/sync", struct{}{}, nil)
	}
	for round := 0; round < 3; round++ {
		for _, s := range srvs {
			s.ClusterNode().GossipOnce()
		}
	}
	// Every node must know all three origins at equal versions…
	ref := srvs[0].ClusterNode().Digest()
	if len(ref) != 3 {
		t.Fatalf("node 0 knows %d origins, want 3: %v", len(ref), ref)
	}
	for i, s := range srvs[1:] {
		d := s.ClusterNode().Digest()
		for k, v := range ref {
			if d[k] != v {
				t.Fatalf("node %d digest %v disagrees with node 0's %v", i+1, d, ref)
			}
		}
	}
	// …and serve bit-identical estimates from the merged view.
	var top TopKResponse
	if code := doJSON(t, "GET", https[0].URL+"/v1/topk?k=8", nil, &top); code != 200 || len(top.Features) == 0 {
		t.Fatalf("topk: code %d, %d features", code, len(top.Features))
	}
	for _, f := range top.Features {
		var e0, e1, e2 EstimateResponse
		doJSON(t, "GET", https[0].URL+"/v1/estimate?i="+itoa(f.I), nil, &e0)
		doJSON(t, "GET", https[1].URL+"/v1/estimate?i="+itoa(f.I), nil, &e1)
		doJSON(t, "GET", https[2].URL+"/v1/estimate?i="+itoa(f.I), nil, &e2)
		if e0.Weights[0] != e1.Weights[0] || e1.Weights[0] != e2.Weights[0] {
			t.Fatalf("estimate(%d) differs across nodes: %v %v %v", f.I, e0.Weights[0], e1.Weights[0], e2.Weights[0])
		}
	}
	// Status reflects the exchange.
	var st map[string]interface{}
	if code := doJSON(t, "GET", https[0].URL+"/v1/cluster/status", nil, &st); code != 200 {
		t.Fatalf("status: HTTP %d", code)
	}
	if st["self"] == "" || st["origins"] == nil {
		t.Fatalf("thin status document: %v", st)
	}
}

// TestClusterPushRequiresAuth: with a token configured, unauthenticated
// pushes must 401 and authenticated gossip must still converge (peers
// share the token).
func TestClusterPushRequiresAuth(t *testing.T) {
	const token = "mesh-token"
	opt := testOptions(t, BackendAWM)
	opt.AuthToken = token
	srvs, https := clusterServers(t, 2, opt, nil)

	// Raw unauthenticated push: 401.
	resp, err := http.Post(https[0].URL+"/v1/cluster/push", "application/octet-stream",
		strings.NewReader("FCMW"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated push: HTTP %d, want 401", resp.StatusCode)
	}

	// Train node 1 (authorized), then gossip: node 0 pulls node 1's state,
	// and node 1's push back to node 0 carries the shared token.
	req, _ := http.NewRequest("POST", https[1].URL+"/v1/update",
		strings.NewReader(`{"example":{"y":1,"x":[{"i":3,"v":1}]}}`))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+token)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != 200 {
		t.Fatalf("authorized update: HTTP %d", r2.StatusCode)
	}
	srvs[0].ClusterNode().GossipOnce()
	srvs[1].ClusterNode().GossipOnce()
	d := srvs[0].ClusterNode().Digest()
	if len(d) != 2 {
		t.Fatalf("authenticated gossip did not propagate: %v", d)
	}
	// Pull stays open (read path) even with auth on.
	resp, err = http.Post(https[0].URL+"/v1/cluster/pull", "application/json",
		strings.NewReader(`{"from":"probe","digest":{}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pull with no token: HTTP %d", resp.StatusCode)
	}
}

// TestClusterEndpointsDisabledWithoutPeers: a plain server 404s the
// cluster API.
func TestClusterEndpointsDisabledWithoutPeers(t *testing.T) {
	_, hs := newTestServer(t, BackendAWM)
	if code := doJSON(t, "GET", hs.URL+"/v1/cluster/status", nil, nil); code != http.StatusNotFound {
		t.Fatalf("status on non-cluster server: HTTP %d, want 404", code)
	}
	if code := doJSON(t, "POST", hs.URL+"/v1/cluster/pull", PullRequestJSON{}, nil); code != http.StatusNotFound {
		t.Fatalf("pull on non-cluster server: HTTP %d, want 404", code)
	}
}

// PullRequestJSON mirrors cluster.PullRequest for the disabled-endpoint
// probe without importing the package here.
type PullRequestJSON struct {
	From   string           `json:"from"`
	Digest map[string]int64 `json:"digest"`
}

func itoa(v uint32) string { return strconv.FormatUint(uint64(v), 10) }

// TestClusterMatchesUnionLearner boots three nodes as a full mesh, trains
// each on a disjoint round-robin third of a stream over NDJSON ingest, and
// gossips to quiescence. It checks the paper's mergeability claim end to
// end: every node's holdout error lands within ε = 0.05 (relative) of one
// AWM-Sketch trained on the whole stream. It checks that delta compression
// does its job: with every base acked, the incremental phase rides on
// delta frames and its rounds average under 0.8× the full-sync rounds'
// bytes. It measures an idle round, requires the wmgossip_* families on
// every node, and requires a peer to apply node 0's frames under node 0's
// gossip-round trace id. It logs the rounds, bytes, frames and holdout
// errors it measures.
func TestClusterMatchesUnionLearner(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node convergence run; skipped in -short")
	}
	const (
		nodes     = 3
		examples  = 9000
		holdout   = 4000
		epsilon   = 0.05
		maxRounds = 32 // per phase
		seed      = 42
	)
	opt := testOptions(t, BackendAWM)
	opt.Config = core.Config{Width: 4096, Depth: 1, HeapSize: 2048, Lambda: 1e-6, Seed: seed}

	// A labeled stream split into two training stages, then a holdout
	// drawn after the training prefix.
	gen := datagen.RCV1Like(seed)
	train := gen.Take(examples)
	test := gen.Take(holdout)
	stage1, stage2 := train[:2*len(train)/3], train[2*len(train)/3:]

	// The union baseline: one learner, the whole stream, in order.
	union := core.NewAWMSketch(opt.Config)
	for _, ex := range train {
		union.Update(ex.X, ex.Y)
	}
	wrong := 0
	for _, ex := range test {
		// The predict handler's label: +1 for a positive margin, else -1.
		if (union.Predict(ex.X) > 0) != (ex.Y == 1) {
			wrong++
		}
	}
	errUnion := float64(wrong) / float64(len(test))
	if errUnion == 0 {
		t.Fatal("degenerate stream: the union learner has zero holdout error")
	}

	srvs, https := clusterServers(t, nodes, opt, nil)
	// ingest streams node i the examples at i, i+n, … as NDJSON.
	ingest := func(hss []*httptest.Server, examples []stream.Example) {
		t.Helper()
		for i, hs := range hss {
			var b strings.Builder
			count := 0
			for j := i; j < len(examples); j += len(hss) {
				blob, err := json.Marshal(exampleWire(examples[j]))
				if err != nil {
					t.Fatal(err)
				}
				b.Write(blob)
				b.WriteByte('\n')
				count++
			}
			code, body := postBody(t, hs.URL+"/v1/update", "application/x-ndjson", b.String())
			if code != http.StatusOK {
				t.Fatalf("node %d ingest: HTTP %d: %s", i, code, body)
			}
			var up UpdateResponse
			if err := json.Unmarshal([]byte(body), &up); err != nil {
				t.Fatal(err)
			}
			if up.Applied != count {
				t.Fatalf("node %d ingest applied %d, want %d", i, up.Applied, count)
			}
		}
	}
	syncAll := func(hss []*httptest.Server) {
		t.Helper()
		for _, hs := range hss {
			if code := doJSON(t, "POST", hs.URL+"/v1/sync", struct{}{}, nil); code != http.StatusOK {
				t.Fatalf("sync %s: HTTP %d", hs.URL, code)
			}
		}
	}
	holdoutErrors := func() []float64 {
		t.Helper()
		errs := make([]float64, len(https))
		for i, hs := range https {
			wrong := 0
			for _, ex := range test {
				var pr PredictResponse
				if code := doJSON(t, "POST", hs.URL+"/v1/predict", PredictRequest{X: vecWire(ex.X)}, &pr); code != http.StatusOK {
					t.Fatalf("node %d predict: HTTP %d", i, code)
				}
				if pr.Label != ex.Y {
					wrong++
				}
			}
			errs[i] = float64(wrong) / float64(len(test))
		}
		return errs
	}
	round := func() {
		for _, s := range srvs {
			s.ClusterNode().GossipOnce()
		}
	}
	// quiesce runs rounds until every node reports the same digest over
	// all origins, after at least two rounds so push-backs have settled.
	quiesce := func() int {
		t.Helper()
		for r := 1; r <= maxRounds; r++ {
			round()
			if r >= 2 && digestsAgree(srvs) {
				return r
			}
		}
		t.Fatalf("no quiescence after %d rounds", maxRounds)
		return 0
	}
	// transfer sums every node's gossip bytes in and out and the frames it
	// pushed.
	transfer := func() (bytes, fulls, deltas int64) {
		for _, s := range srvs {
			st := s.ClusterNode().Status()
			bytes += st.BytesIn + st.BytesOut
			fulls += st.FullsOut
			deltas += st.DeltasOut
		}
		return bytes, fulls, deltas
	}

	// Stage 1, then the pre-gossip errors: each node has seen only its
	// partition.
	ingest(https, stage1)
	syncAll(https)
	errPart := holdoutErrors()

	// Phase A: gossip to quiescence from cold; full snapshots dominate.
	roundsA := quiesce()
	bytesA, fullsA, deltasA := transfer()

	// Phase B: continuous training with a round after each small chunk, so
	// with every base acked this phase must ride on delta frames.
	const chunks = 8
	chunkLen := (len(stage2) + chunks - 1) / chunks
	roundsB := 0
	for lo := 0; lo < len(stage2); lo += chunkLen {
		ingest(https, stage2[lo:min(lo+chunkLen, len(stage2))])
		syncAll(https)
		round()
		roundsB++
	}
	roundsB += quiesce()
	bytesAll, fullsAll, deltasAll := transfer()
	bytesB, deltasB := bytesAll-bytesA, deltasAll-deltasA

	// A quiescent round moves digests only: the at-rest cost of the
	// anti-entropy loop.
	round()
	bytesIdle, _, _ := transfer()
	bytesIdle -= bytesAll

	if deltasB == 0 {
		t.Fatalf("the incremental phase sent no delta frames (fulls %d → %d)", fullsA, fullsAll)
	}
	perFullRound := float64(bytesA) / float64(roundsA)
	perDeltaRound := float64(bytesB) / float64(roundsB)
	t.Logf("full-sync phase: %d rounds, %d B (%.0f B/round), %d full and %d delta frames",
		roundsA, bytesA, perFullRound, fullsA, deltasA)
	t.Logf("delta phase: %d rounds, %d B (%.0f B/round, %.1f%% of full-sync), %d delta frames; idle round %d B",
		roundsB, bytesB, perDeltaRound, 100*perDeltaRound/perFullRound, deltasB, bytesIdle)
	t.Logf("frames: %d full, %d delta", fullsAll, deltasAll)
	if perDeltaRound >= 0.8*perFullRound {
		t.Errorf("delta rounds average %.0f B, not under 0.8× the full-sync rounds' %.0f B",
			perDeltaRound, perFullRound)
	}

	// Every node must now answer within ε (relative) of the union learner.
	errConv := holdoutErrors()
	maxGap := 0.0
	for _, e := range errConv {
		maxGap = max(maxGap, abs(e-errUnion)/errUnion)
	}
	t.Logf("holdout error: union %.5g, partitioned %v, converged %v, max relative gap %.4g (ε %.2f)",
		errUnion, errPart, errConv, maxGap, epsilon)
	if maxGap > epsilon {
		t.Errorf("converged error gap %.4f exceeds ε %.2f (union %.4f, nodes %v)", maxGap, epsilon, errUnion, errConv)
	}

	for i, s := range srvs {
		t.Run(fmt.Sprintf("metrics/node%d", i), func(t *testing.T) {
			requireFamilies(t, s,
				"wmgossip_rounds_total",
				"wmgossip_peer_rounds_total",
				"wmgossip_stream_bytes_total",
				"wmgossip_frames_total",
				"wmgossip_frame_bytes_total",
				"wmgossip_frames_built_total",
				"wmgossip_frames_applied_total",
				"wmgossip_delta_built_ratio",
			)
		})
	}

	// Cross-node causal linkage: a round minted on node 0 must show up in
	// its peers' lineage under the same trace id, carried by the push RPC's
	// traceparent header. It runs after the converged evaluation, so its
	// extra examples cannot move the ε gate, and drains the lineage of the
	// phases first, so it sees only this round.
	for _, s := range srvs {
		s.ClusterNode().DrainLineage()
	}
	ingest(https[:1], gen.Take(64))
	syncAll(https[:1])
	srvs[0].ClusterNode().GossipOnce()
	tid := srvs[0].ClusterNode().LastRoundTrace()
	if tid.IsZero() {
		t.Fatal("node 0's gossip round minted no trace id")
	}
	linked := 0
	for _, s := range srvs[1:] {
		entries, _ := s.ClusterNode().DrainLineage()
		for _, e := range entries {
			if e.Trace == tid && e.Origin == https[0].URL {
				linked++
			}
		}
	}
	if linked == 0 {
		t.Fatalf("no peer recorded an applied frame under node 0's round trace %s", tid)
	}
	t.Logf("cross-node linkage: %d peer applies under round trace %s", linked, tid)
}

// digestsAgree reports whether every node knows every origin at the same
// version.
func digestsAgree(srvs []*Server) bool {
	ref := srvs[0].ClusterNode().Digest()
	if len(ref) < len(srvs) {
		return false // not every origin has propagated yet
	}
	for _, s := range srvs[1:] {
		d := s.ClusterNode().Digest()
		if len(d) != len(ref) {
			return false
		}
		for k, v := range ref {
			if d[k] != v {
				return false
			}
		}
	}
	return true
}
