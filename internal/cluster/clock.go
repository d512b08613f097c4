package cluster

import (
	"sort"
	"sync"
	"time"
)

// Clock is the cluster layer's single source of time. Everything in this
// package that needs wall time — membership aging, backoff deadlines,
// origin GC, the gossip ticker — goes through an injected Clock, never the
// time package directly, so the discrete-event simulator
// (internal/cluster/sim) and the membership tests can drive a whole fleet
// on virtual time with zero wall-clock sleeps. The custom
// clockdet analyzer (cmd/wmlint, LINTING.md) mechanically enforces this:
// any raw time.Now/time.After/time.Sleep/time.NewTimer/time.NewTicker call
// in internal/cluster/... outside this file is a lint error.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// NewTicker returns a ticker that delivers a tick every d on this
	// clock. d must be positive.
	NewTicker(d time.Duration) Ticker
}

// Ticker is the Clock-level counterpart of *time.Ticker.
type Ticker interface {
	// Chan returns the delivery channel. Like time.Ticker, delivery is
	// lossy: a receiver that falls behind misses ticks instead of queueing
	// them.
	Chan() <-chan time.Time
	// Stop ends delivery. It does not close the channel.
	Stop()
}

// WallClock is the production Clock: real time from the time package.
var WallClock Clock = wallClock{}

type wallClock struct{}

//lint:ignore clockdet this is the Clock implementation the rest of the package is routed through
func (wallClock) Now() time.Time { return time.Now() }

//lint:ignore clockdet this is the Clock implementation the rest of the package is routed through
func (wallClock) NewTicker(d time.Duration) Ticker { return wallTicker{time.NewTicker(d)} }

type wallTicker struct{ t *time.Ticker }

func (w wallTicker) Chan() <-chan time.Time { return w.t.C }
func (w wallTicker) Stop()                  { w.t.Stop() }

// VirtualClock is a manually-advanced Clock for tests and the simulator.
// Time moves only on Advance/Set; tickers registered via NewTicker fire
// during the advance, in deadline order, stamped with their scheduled
// virtual fire time (never the wall clock). Safe for concurrent use, so a
// goroutine blocked on a ticker can be released by a test advancing the
// clock from outside.
type VirtualClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*virtualTimer
}

type virtualTimer struct {
	at      time.Time
	period  time.Duration
	ch      chan time.Time
	stopped bool
}

// NewVirtualClock returns a VirtualClock reading start.
func NewVirtualClock(start time.Time) *VirtualClock {
	return &VirtualClock{now: start}
}

// Now implements Clock.
func (c *VirtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// NewTicker implements Clock. Ticks are delivered on Advance; like
// time.Ticker, delivery is lossy when the receiver is not ready.
func (c *VirtualClock) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("cluster: VirtualClock.NewTicker requires a positive period")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &virtualTimer{at: c.now.Add(d), period: d, ch: make(chan time.Time, 1)}
	c.timers = append(c.timers, t)
	return virtualTicker{c: c, t: t}
}

type virtualTicker struct {
	c *VirtualClock
	t *virtualTimer
}

func (v virtualTicker) Chan() <-chan time.Time { return v.t.ch }

func (v virtualTicker) Stop() {
	v.c.mu.Lock()
	v.t.stopped = true
	v.c.mu.Unlock()
}

// Advance moves the clock forward by d, firing every due timer in deadline
// order at its scheduled virtual time.
func (c *VirtualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.setLocked(c.now.Add(d))
}

// Set jumps the clock to t (which must not be earlier than Now), firing
// every timer due on the way.
func (c *VirtualClock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.Before(c.now) {
		panic("cluster: VirtualClock cannot move backwards")
	}
	c.setLocked(t)
}

// setLocked advances to target, repeatedly firing the earliest due timer so
// interleaved ticker re-arms are delivered in global deadline order. Caller
// holds c.mu.
func (c *VirtualClock) setLocked(target time.Time) {
	for {
		// Find the earliest live timer at or before target.
		idx := -1
		for i, t := range c.timers {
			if t.stopped {
				continue
			}
			if !t.at.After(target) && (idx < 0 || t.at.Before(c.timers[idx].at)) {
				idx = i
			}
		}
		if idx < 0 {
			break
		}
		t := c.timers[idx]
		c.now = t.at
		select {
		case t.ch <- t.at:
		default: // lossy, like time.Ticker
		}
		t.at = t.at.Add(t.period)
		c.compactLocked()
	}
	c.now = target
}

// compactLocked drops stopped tickers so long-lived clocks do not leak
// entries. Caller holds c.mu.
func (c *VirtualClock) compactLocked() {
	live := c.timers[:0]
	for _, t := range c.timers {
		if !t.stopped {
			live = append(live, t)
		}
	}
	// Keep a stable order for determinism when deadlines tie.
	sort.SliceStable(live, func(i, j int) bool { return live[i].at.Before(live[j].at) })
	c.timers = live
}
