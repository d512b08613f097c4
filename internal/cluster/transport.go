package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"wmsketch/internal/trace"
)

// Transport carries gossip RPCs to peers. The default implementation speaks
// HTTP against the peer's ordinary wmserve listener; tests and the
// discrete-event simulator (internal/cluster/sim) plug in in-memory — and
// fault-injected — implementations, so the whole gossip client (sampling,
// backoff, membership, retry policy) can be driven without sockets or
// wall-clock time.
type Transport interface {
	// Pull POSTs our digest to the peer and returns its frame stream. The
	// caller owns closing the stream; implementations must honor ctx.
	Pull(ctx context.Context, peerURL string, req PullRequest) (io.ReadCloser, error)
	// Push delivers an encoded frame stream to the peer.
	Push(ctx context.Context, peerURL string, frames []byte) error
}

// httpTransport is the production Transport: gossip over the peers' HTTP
// listeners, bearer-authenticated pushes.
type httpTransport struct {
	client    *http.Client
	authToken string
}

func (t httpTransport) Pull(ctx context.Context, peerURL string, req PullRequest) (io.ReadCloser, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, peerURL+"/v1/cluster/pull", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	// Carry the gossip round's span so the peer's handler continues our
	// trace — the HTTP half of cross-node causal linkage.
	trace.Inject(hreq.Header, trace.SpanContextOf(ctx))
	resp, err := t.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("pull: HTTP %d: %s", resp.StatusCode, msg)
	}
	return resp.Body, nil
}

func (t httpTransport) Push(ctx context.Context, peerURL string, frames []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peerURL+"/v1/cluster/push", bytes.NewReader(frames))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	trace.Inject(req.Header, trace.SpanContextOf(ctx))
	if t.authToken != "" {
		req.Header.Set("Authorization", "Bearer "+t.authToken)
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, msg)
	}
	return nil
}

// maxDrainBytes bounds how much of an unread response body drainClose
// reads; a push answer is a few dozen bytes of JSON.
const maxDrainBytes = 4 << 10

// drainClose reads a response body to EOF (up to maxDrainBytes) before
// closing it: the HTTP client returns a connection to its idle pool only
// when the body was read to the end, so an unread body costs every push a
// fresh TCP connection.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, maxDrainBytes))
	_ = body.Close()
}
