package trace

import (
	"sort"
	"sync/atomic"
	"time"
)

// The flight recorder: two fixed-size lock-free rings of immutable trace
// Records. Writers claim a slot with one atomic add and store a pointer;
// readers snapshot whatever is present. A reader racing a writer may see a
// slot mid-rotation (an older or newer record than strict order implies) —
// acceptable for a debug surface, and it keeps the keep-path down to one
// atomic RMW plus one store.

// RecordedSpan is the immutable copy of one finished span.
type RecordedSpan struct {
	Name     string
	ID       SpanID
	Parent   SpanID // zero for a true root; remote parent for continued traces
	Start    time.Time
	Duration time.Duration
	Err      bool
	Finished bool
}

// Record is the immutable copy of one kept trace.
type Record struct {
	Seq          uint64 // recorder sequence number (monotonic per ring)
	TraceID      TraceID
	Root         string // root span name
	Reason       string // "slow" | "error" | "sampled"
	Remote       bool   // trace ID was continued from another process
	Start        time.Time
	Duration     time.Duration // root span duration
	DroppedSpans int
	Spans        []RecordedSpan
}

// record snapshots the arena's first used spans into an immutable Record.
// Unfinished spans (a bug at the call site, but recoverable) are stamped
// with the duration observed so far.
func (at *activeTrace) record(reason string, used, dropped int) *Record {
	root := &at.spans[0]
	rec := &Record{
		TraceID:      at.traceID,
		Root:         root.name,
		Reason:       reason,
		Remote:       at.remote,
		Start:        root.start,
		Duration:     root.dur,
		DroppedSpans: dropped,
		Spans:        make([]RecordedSpan, used),
	}
	for i := 0; i < used; i++ {
		sp := &at.spans[i]
		dur := sp.dur
		if !sp.done {
			dur = root.dur // best effort: bound by the root's window
		}
		rec.Spans[i] = RecordedSpan{
			Name:     sp.name,
			ID:       sp.id,
			Parent:   sp.parent,
			Start:    sp.start,
			Duration: dur,
			Err:      sp.err,
			Finished: sp.done,
		}
	}
	return rec
}

// ring is a lock-free MPMC overwrite buffer of trace records.
type ring struct {
	cursor atomic.Uint64
	slots  []atomic.Pointer[Record]
}

func newRing(n int) *ring {
	return &ring{slots: make([]atomic.Pointer[Record], n)}
}

// add publishes rec, overwriting the oldest slot once the ring is full.
func (r *ring) add(rec *Record) {
	seq := r.cursor.Add(1) - 1
	rec.Seq = seq
	r.slots[seq%uint64(len(r.slots))].Store(rec)
}

// snapshot returns the resident records, newest first.
func (r *ring) snapshot() []*Record {
	out := make([]*Record, 0, len(r.slots))
	cur := r.cursor.Load()
	n := uint64(len(r.slots))
	span := cur
	if span > n {
		span = n
	}
	for k := uint64(0); k < span; k++ {
		if rec := r.slots[(cur-1-k)%n].Load(); rec != nil {
			out = append(out, rec)
		}
	}
	return out
}

// Recent returns the kept traces in the recent ring, newest first.
func (t *Tracer) Recent() []*Record {
	if t == nil {
		return nil
	}
	return t.recent.snapshot()
}

// Slowest returns the slow/error ring's traces, worst (longest root
// duration) first.
func (t *Tracer) Slowest() []*Record {
	if t == nil {
		return nil
	}
	recs := t.slowed.snapshot()
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Duration > recs[j].Duration })
	return recs
}

// SlowestRecord returns the single worst kept trace of the tracer's
// lifetime (nil when nothing has been kept). Pinned outside the rings, so
// the answer is not limited to the last few hundred traces —
// wmbench -serve-bench embeds this in its report and a run's true worst
// must not be evicted by the fast traffic that followed it.
func (t *Tracer) SlowestRecord() *Record {
	if t == nil {
		return nil
	}
	return t.worst.Load()
}

// pinWorst installs rec as the lifetime-worst record if it is.
func (t *Tracer) pinWorst(rec *Record) {
	for {
		cur := t.worst.Load()
		if cur != nil && cur.Duration >= rec.Duration {
			return
		}
		if t.worst.CompareAndSwap(cur, rec) {
			return
		}
	}
}
