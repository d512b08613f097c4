package cluster

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Fault injection at the HTTP layer: ChaosTransport wraps any
// http.RoundTripper with seeded, deterministic drop/delay/duplicate/
// corrupt/partition rules. Tests use it to drive the gossip client through
// failure schedules; `wmserve -chaos "drop=0.1,delay=50ms"` wires it into
// the cluster client of a live node, so an operator can watch membership,
// backoff, and /healthz react to a known fault mix on a live fleet.

// ChaosConfig is the fault mix. All probabilities are per request in
// [0,1]; zero values inject nothing.
type ChaosConfig struct {
	// Seed makes the fault schedule deterministic; 0 selects 1.
	Seed int64
	// Drop fails the request outright (connection-refused analog).
	Drop float64
	// Dup sends the request twice, returning the second response —
	// protocol idempotency must make the first harmless.
	Dup float64
	// Corrupt flips bytes of the response body, which the frame decoder
	// must reject rather than ingest.
	Corrupt float64
	// DelayProb delays a request by Delay before it is sent.
	DelayProb float64
	Delay     time.Duration
	// Partition, when non-nil, fails any request whose target host it
	// reports as unreachable.
	Partition func(host string) bool
	// Clock drives the Delay injection; nil selects WallClock. The
	// simulator and tests inject a VirtualClock so a delay schedule runs
	// on virtual time — deterministic, with zero wall-clock sleeps.
	Clock Clock
}

// ChaosStats counts injected faults.
type ChaosStats struct {
	Requests, Dropped, Duplicated, Corrupted, Delayed, Partitioned int64
}

// ChaosTransport is an http.RoundTripper that injects the configured
// faults, deterministically under its seed. Safe for concurrent use.
type ChaosTransport struct {
	base http.RoundTripper
	cfg  ChaosConfig

	mu    sync.Mutex
	rng   *rand.Rand
	stats ChaosStats
}

// NewChaosTransport wraps base (nil selects http.DefaultTransport).
func NewChaosTransport(base http.RoundTripper, cfg ChaosConfig) *ChaosTransport {
	if base == nil {
		base = http.DefaultTransport
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = WallClock
	}
	return &ChaosTransport{base: base, cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// Stats snapshots the injected-fault counters.
func (c *ChaosTransport) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// roll draws the per-request fault decisions under one lock acquisition,
// keeping the schedule a pure function of the seed and request order.
func (c *ChaosTransport) roll() (drop, dup, corrupt, delay bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Requests++
	drop = c.cfg.Drop > 0 && c.rng.Float64() < c.cfg.Drop
	dup = c.cfg.Dup > 0 && c.rng.Float64() < c.cfg.Dup
	corrupt = c.cfg.Corrupt > 0 && c.rng.Float64() < c.cfg.Corrupt
	delay = c.cfg.DelayProb > 0 && c.rng.Float64() < c.cfg.DelayProb
	switch {
	case drop:
		c.stats.Dropped++
	case dup:
		c.stats.Duplicated++
	}
	if corrupt {
		c.stats.Corrupted++
	}
	if delay {
		c.stats.Delayed++
	}
	return drop, dup, corrupt, delay
}

// RoundTrip implements http.RoundTripper.
func (c *ChaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if p := c.cfg.Partition; p != nil && p(req.URL.Host) {
		c.mu.Lock()
		c.stats.Partitioned++
		c.mu.Unlock()
		return nil, fmt.Errorf("chaos: partitioned from %s", req.URL.Host)
	}
	drop, dup, corrupt, delay := c.roll()
	if drop {
		return nil, fmt.Errorf("chaos: dropped request to %s", req.URL.Host)
	}
	if delay && c.cfg.Delay > 0 {
		// The delay runs on the injected Clock, not the time package, so a
		// delay schedule under the simulator's VirtualClock is a pure
		// function of the seed — virtual time, zero wall-clock sleeps.
		select {
		case <-c.cfg.Clock.After(c.cfg.Delay):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	// Duplication needs a rewindable body: buffer it once, replay twice.
	var bodyCopy []byte
	if dup && req.Body != nil {
		var err error
		bodyCopy, err = io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		req.Body = io.NopCloser(bytes.NewReader(bodyCopy))
	}
	resp, err := c.base.RoundTrip(req)
	if dup && err == nil {
		// Drain and discard the first response, then send again — the
		// receiver saw the request twice, exactly like a retried datagram.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		second := req.Clone(req.Context())
		if bodyCopy != nil {
			second.Body = io.NopCloser(bytes.NewReader(bodyCopy))
		}
		resp, err = c.base.RoundTrip(second)
	}
	if err != nil {
		return nil, err
	}
	if corrupt {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			return nil, rerr
		}
		if len(body) > 0 {
			c.mu.Lock()
			// Flip a handful of bytes at seeded offsets.
			for i := 0; i < 1+len(body)/256; i++ {
				body[c.rng.Intn(len(body))] ^= 0xA5
			}
			c.mu.Unlock()
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
	}
	return resp, nil
}

// ParseChaos parses the -chaos flag grammar: comma-separated key=value
// pairs from {drop,dup,corrupt,delayp} (probabilities), delay (duration),
// and seed (int). Example: "drop=0.1,delay=50ms,delayp=0.5,seed=7".
func ParseChaos(s string) (ChaosConfig, error) {
	var cfg ChaosConfig
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return cfg, fmt.Errorf("chaos: %q is not key=value", part)
		}
		switch key {
		case "drop", "dup", "corrupt", "delayp":
			p, err := strconv.ParseFloat(val, 64)
			// NaN compares false to both bounds, so reject it explicitly —
			// a NaN probability would poison every rng comparison.
			if err != nil || math.IsNaN(p) || p < 0 || p > 1 {
				return cfg, fmt.Errorf("chaos: %s must be a probability in [0,1], got %q", key, val)
			}
			switch key {
			case "drop":
				cfg.Drop = p
			case "dup":
				cfg.Dup = p
			case "corrupt":
				cfg.Corrupt = p
			case "delayp":
				cfg.DelayProb = p
			}
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return cfg, fmt.Errorf("chaos: bad delay %q", val)
			}
			cfg.Delay = d
			if cfg.DelayProb == 0 {
				cfg.DelayProb = 1
			}
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return cfg, fmt.Errorf("chaos: bad seed %q", val)
			}
			cfg.Seed = n
		default:
			return cfg, fmt.Errorf("chaos: unknown key %q (want drop/dup/corrupt/delay/delayp/seed)", key)
		}
	}
	return cfg, nil
}
