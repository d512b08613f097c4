package cluster

import (
	"testing"
	"time"
)

// TestVirtualClockTimersFireInDeadlineOrder: tickers registered out of
// order fire during one Advance at their own scheduled deadlines, not at
// the advance target, and re-arm from those deadlines.
func TestVirtualClockTimersFireInDeadlineOrder(t *testing.T) {
	start := time.Unix(0, 0)
	c := NewVirtualClock(start)
	late := c.NewTicker(30 * time.Second)
	early := c.NewTicker(10 * time.Second)
	mid := c.NewTicker(20 * time.Second)
	defer late.Stop()
	defer early.Stop()
	defer mid.Stop()
	// Undrained, each ticker keeps its first tick (lossy delivery), so the
	// stamp it holds is its first deadline. After a drain, the next advance
	// delivers the first deadline past the previous target.
	for round, want := range [][3]time.Duration{
		{10 * time.Second, 20 * time.Second, 30 * time.Second},
		{70 * time.Second, 80 * time.Second, 90 * time.Second},
	} {
		c.Advance(time.Minute)
		for i, tk := range []Ticker{early, mid, late} {
			select {
			case at := <-tk.Chan():
				if !at.Equal(start.Add(want[i])) {
					t.Fatalf("advance %d: tick due at +%v delivered at +%v", round+1, want[i], at.Sub(start))
				}
			default:
				t.Fatalf("advance %d: tick due at +%v did not fire", round+1, want[i])
			}
		}
	}
}

func TestVirtualClockTickerReArmsAndIsLossy(t *testing.T) {
	c := NewVirtualClock(time.Unix(0, 0))
	tk := c.NewTicker(time.Second)
	defer tk.Stop()

	// Advancing 5s with nobody draining delivers only the buffered tick:
	// lossy, like time.Ticker.
	c.Advance(5 * time.Second)
	got := 0
	for {
		select {
		case <-tk.Chan():
			got++
			continue
		default:
		}
		break
	}
	if got != 1 {
		t.Fatalf("undrained ticker queued %d ticks, want 1 (lossy delivery)", got)
	}

	// Drained each step, it ticks once per period.
	for i := 0; i < 3; i++ {
		c.Advance(time.Second)
		select {
		case <-tk.Chan():
		default:
			t.Fatalf("drained ticker missed tick %d", i)
		}
	}

	tk.Stop()
	c.Advance(10 * time.Second)
	select {
	case <-tk.Chan():
		t.Fatal("stopped ticker still ticking")
	default:
	}
}

func TestVirtualClockSetRefusesToGoBackwards(t *testing.T) {
	c := NewVirtualClock(time.Unix(100, 0))
	defer func() {
		if recover() == nil {
			t.Fatal("Set into the past did not panic")
		}
	}()
	c.Set(time.Unix(50, 0))
}

func TestVirtualClockReleasesBlockedGoroutine(t *testing.T) {
	// The property the gossip loop depends on: a goroutine blocked on a
	// ticker is released by another goroutine advancing the clock.
	c := NewVirtualClock(time.Unix(0, 0))
	tk := c.NewTicker(time.Hour)
	defer tk.Stop()
	done := make(chan struct{})
	go func() {
		<-tk.Chan()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("goroutine ran past an unexpired virtual ticker")
	case <-time.After(20 * time.Millisecond):
	}
	c.Advance(time.Hour)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Advance did not release the blocked goroutine")
	}
}
