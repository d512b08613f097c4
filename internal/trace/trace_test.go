package trace

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic, monotonically advancing clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func testTracer(opt Options) *Tracer {
	if opt.Now == nil {
		opt.Now = newFakeClock().Now
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	return New(opt)
}

func TestSpanTreeAndTailKeep(t *testing.T) {
	clk := newFakeClock()
	tr := testTracer(Options{Now: clk.Now, Seed: 7, SampleRate: -1, SlowThreshold: 50 * time.Millisecond})

	// Fast, clean trace: dropped (rate disabled, under threshold).
	ctx, root := tr.StartSpan(context.Background(), "fast")
	_, child := tr.StartSpan(ctx, "child")
	child.Finish()
	root.Finish()
	if got := len(tr.Recent()); got != 0 {
		t.Fatalf("fast clean trace should be dropped, recent=%d", got)
	}

	// Slow trace: always kept.
	ctx, root = tr.StartSpan(context.Background(), "slow-op")
	cctx, child := tr.StartSpan(ctx, "inner")
	_, gchild := tr.StartSpan(cctx, "leaf")
	clk.Advance(60 * time.Millisecond)
	gchild.Finish()
	child.Finish()
	root.Finish()

	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("slow trace not kept: recent=%d", len(recent))
	}
	rec := recent[0]
	if rec.Reason != "slow" || rec.Root != "slow-op" || len(rec.Spans) != 3 {
		t.Fatalf("unexpected record: %+v", rec)
	}
	if rec.Duration != 60*time.Millisecond {
		t.Fatalf("root duration = %v, want 60ms", rec.Duration)
	}
	tree := RenderRecord(rec)
	if len(tree.Spans) != 1 || tree.Spans[0].Name != "slow-op" {
		t.Fatalf("tree root = %+v", tree.Spans)
	}
	if len(tree.Spans[0].Children) != 1 || tree.Spans[0].Children[0].Name != "inner" {
		t.Fatalf("tree child = %+v", tree.Spans[0].Children)
	}
	if len(tree.Spans[0].Children[0].Children) != 1 || tree.Spans[0].Children[0].Children[0].Name != "leaf" {
		t.Fatalf("tree leaf = %+v", tree.Spans[0].Children[0].Children)
	}

	// Errored trace: always kept, lands in the slow/error ring too.
	ctx, root = tr.StartSpan(context.Background(), "failing")
	_, child = tr.StartSpan(ctx, "broken")
	child.SetError()
	child.Finish()
	root.Finish()
	slowest := tr.Slowest()
	found := false
	for _, r := range slowest {
		if r.Root == "failing" && r.Reason == "error" {
			found = true
		}
	}
	if !found {
		t.Fatalf("errored trace missing from slow ring: %+v", slowest)
	}
}

func TestSamplerDeterminism(t *testing.T) {
	run := func(seed int64) []bool {
		tr := testTracer(Options{Seed: seed, SampleRate: 0.5})
		kept := make([]bool, 200)
		for i := range kept {
			before := len(tr.Recent())
			_, sp := tr.StartSpan(context.Background(), "op")
			sp.Finish()
			kept[i] = len(tr.Recent()) > before
		}
		return kept
	}
	a, b := run(42), run(42)
	anyKept, anyDropped := false, false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at trace %d", i)
		}
		anyKept = anyKept || a[i]
		anyDropped = anyDropped || !a[i]
	}
	if !anyKept || !anyDropped {
		t.Fatalf("rate 0.5 produced a degenerate sequence (kept=%v dropped=%v)", anyKept, anyDropped)
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sampling sequences")
	}
}

func TestSampleRateExtremes(t *testing.T) {
	always := testTracer(Options{Seed: 3, SampleRate: 1})
	for i := 0; i < 10; i++ {
		_, sp := always.StartSpan(context.Background(), "op")
		sp.Finish()
	}
	if got := len(always.Recent()); got != 10 {
		t.Fatalf("rate 1: kept %d of 10", got)
	}
	never := testTracer(Options{Seed: 3, SampleRate: -1})
	for i := 0; i < 10; i++ {
		_, sp := never.StartSpan(context.Background(), "op")
		sp.Finish()
	}
	if got := len(never.Recent()); got != 0 {
		t.Fatalf("rate -1: kept %d of 10", got)
	}
}

func TestRingWraparoundConcurrent(t *testing.T) {
	const cap = 32
	tr := testTracer(Options{Seed: 11, SampleRate: 1, RecentCapacity: cap, SlowCapacity: 8})
	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ctx, root := tr.StartSpan(context.Background(), fmt.Sprintf("w%d", w))
				_, child := tr.StartSpan(ctx, "child")
				child.Finish()
				root.Finish()
				if i%17 == 0 {
					_ = tr.Recent() // concurrent reader
				}
			}
		}(w)
	}
	wg.Wait()

	recs := tr.Recent()
	if len(recs) != cap {
		t.Fatalf("after %d kept traces, recent ring holds %d, want %d", writers*perWriter, len(recs), cap)
	}
	for i, rec := range recs {
		if rec == nil {
			t.Fatalf("nil record at %d", i)
		}
		if len(rec.Spans) != 2 {
			t.Fatalf("record %d has %d spans, want 2 (torn write?)", i, len(rec.Spans))
		}
		if rec.Spans[1].Parent != rec.Spans[0].ID {
			t.Fatalf("record %d child not parented to root", i)
		}
	}
	if got := tr.traces.Value(); got != writers*perWriter {
		t.Fatalf("traces counter = %d, want %d", got, writers*perWriter)
	}
}

func TestSpanArenaOverflow(t *testing.T) {
	tr := testTracer(Options{Seed: 5, SampleRate: 1, MaxSpans: 4})
	ctx, root := tr.StartSpan(context.Background(), "root")
	for i := 0; i < 10; i++ {
		_, sp := tr.StartSpan(ctx, "child")
		sp.Finish() // nil-safe past the arena bound
	}
	root.Finish()
	recs := tr.Recent()
	if len(recs) != 1 || len(recs[0].Spans) != 4 {
		t.Fatalf("overflow record = %+v", recs)
	}
	if recs[0].DroppedSpans != 7 {
		t.Fatalf("dropped = %d, want 7", recs[0].DroppedSpans)
	}
	if got := tr.spansDropped.Value(); got != 7 {
		t.Fatalf("wmtrace_spans_dropped_total = %d, want 7", got)
	}
}

func TestNilTracerAndNilSpan(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartSpan(context.Background(), "noop")
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	sp.SetError()
	sp.Finish()
	if sc := SpanContextOf(ctx); sc.Valid() {
		t.Fatal("nil tracer produced a valid span context")
	}
	if tr.Recent() != nil || tr.Slowest() != nil || tr.SlowestRecord() != nil {
		t.Fatal("nil tracer recorder not empty")
	}
}

func TestRemoteContinuation(t *testing.T) {
	a := testTracer(Options{Seed: 21, SampleRate: 1})
	b := testTracer(Options{Seed: 22, SampleRate: 1})

	ctx, rootA := a.StartSpan(context.Background(), "origin")
	sc := SpanContextOf(ctx)
	if !sc.Valid() {
		t.Fatal("origin span context invalid")
	}

	// Simulate the wire: format + parse a traceparent.
	hdr := http.Header{}
	Inject(hdr, sc)
	got, ok := Extract(hdr)
	if !ok || got != sc {
		t.Fatalf("traceparent round-trip: got %+v ok=%v want %+v", got, ok, sc)
	}

	rctx := ContextWithRemote(context.Background(), got)
	if SpanContextOf(rctx) != got {
		t.Fatal("remote context not visible before first span")
	}
	bctx, rootB := b.StartSpan(rctx, "apply")
	if SpanContextOf(bctx).TraceID != sc.TraceID {
		t.Fatal("continued trace did not keep the remote trace ID")
	}
	rootB.Finish()
	rootA.Finish()

	recsB := b.Recent()
	if len(recsB) != 1 {
		t.Fatalf("b kept %d traces", len(recsB))
	}
	rec := recsB[0]
	if rec.TraceID != sc.TraceID || !rec.Remote {
		t.Fatalf("b record = %+v, want remote continuation of %s", rec, sc.TraceID)
	}
	if rec.Spans[0].Parent != sc.SpanID {
		t.Fatalf("b root parent = %s, want %s", rec.Spans[0].Parent, sc.SpanID)
	}
	tree := RenderRecord(rec)
	if len(tree.Spans) != 1 || tree.Spans[0].ParentID != sc.SpanID.String() {
		t.Fatalf("remote-parented root not rendered as top-level: %+v", tree.Spans)
	}
}

func TestParseTraceparentHostile(t *testing.T) {
	valid := "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"
	if sc, ok := ParseTraceparent(valid); !ok || sc.TraceID.String() != "0af7651916cd43dd8448eb211c80319c" || sc.SpanID.String() != "b7ad6b7169203331" {
		t.Fatalf("valid header rejected: %v %v", sc, ok)
	}
	// Any flags byte is fine as long as it is lowercase hex.
	if _, ok := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-ff"); !ok {
		t.Fatal("flags ff rejected")
	}

	hostile := []string{
		"",
		"garbage",
		valid + "x",            // trailing junk
		valid[:len(valid)-1],   // truncated
		strings.ToUpper(valid), // uppercase hex is spec-invalid
		strings.Replace(valid, "-", "_", 1),
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // invalid version
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // unknown version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace ID
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span ID
		"00-0af7651916cd43dd8448eb211c80319g-b7ad6b7169203331-01", // non-hex digit
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333g-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-0g",
		"00 0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",
		"00-0af7651916cd43dd8448eb211c80319c b7ad6b7169203331-01",
	}
	for _, h := range hostile {
		if sc, ok := ParseTraceparent(h); ok {
			t.Fatalf("hostile header accepted: %q -> %+v", h, sc)
		}
	}

	// Inject of an invalid context must not emit a header.
	hdr := http.Header{}
	Inject(hdr, SpanContext{})
	if hdr.Get(TraceparentHeader) != "" {
		t.Fatal("invalid span context injected a header")
	}
	if _, ok := Extract(http.Header{}); ok {
		t.Fatal("missing header extracted successfully")
	}
}

func TestSlowestOrdering(t *testing.T) {
	clk := newFakeClock()
	tr := testTracer(Options{Now: clk.Now, Seed: 9, SampleRate: -1, SlowThreshold: time.Millisecond})
	for _, ms := range []int{5, 50, 20} {
		_, sp := tr.StartSpan(context.Background(), fmt.Sprintf("op-%dms", ms))
		clk.Advance(time.Duration(ms) * time.Millisecond)
		sp.Finish()
	}
	slowest := tr.Slowest()
	if len(slowest) != 3 {
		t.Fatalf("slow ring holds %d", len(slowest))
	}
	if slowest[0].Root != "op-50ms" || slowest[1].Root != "op-20ms" || slowest[2].Root != "op-5ms" {
		t.Fatalf("slowest order wrong: %s %s %s", slowest[0].Root, slowest[1].Root, slowest[2].Root)
	}
	worst := tr.SlowestRecord()
	if worst == nil || worst.Root != "op-50ms" {
		t.Fatalf("SlowestRecord = %+v", worst)
	}
}
