package cluster

import (
	"bytes"
	"context"
	"testing"

	"wmsketch/internal/datagen"
	"wmsketch/internal/trace"
)

// TestLineageRecordsApplyTrace: once drained, a node records every adopted
// frame in the lineage ring under the trace that delivered it — the wire
// annotation survives the encode/decode round trip and a remote-continued
// apply records the sender's trace id, while an untraced apply records a
// zero id (which is exactly what the simulator's gate flags).
func TestLineageRecordsApplyTrace(t *testing.T) {
	a := newMember(t, "a")
	b := newMember(t, "b")
	// A node records lineage from its first drain on.
	if entries, dropped := a.node.DrainLineage(); len(entries) != 0 || dropped != 0 {
		t.Fatalf("the first drain returned %d entries (%d dropped), want none", len(entries), dropped)
	}
	train(b, datagen.RCV1Like(41).Take(50))
	if _, _, err := b.node.PublishLocal(); err != nil {
		t.Fatal(err)
	}

	sender := trace.SpanContext{
		TraceID: trace.TraceID{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
		SpanID:  trace.SpanID{1, 2, 3, 4, 5, 6, 7, 8},
	}
	var buf bytes.Buffer
	frames := b.node.BuildFrames(map[string]int64{}, true)
	if _, err := WriteFramesTraced(&buf, sender, frames); err != nil {
		t.Fatal(err)
	}
	decoded, sc, err := ReadFramesTraced(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sc != sender {
		t.Fatalf("annotation %+v did not survive the wire, want %+v", sc, sender)
	}

	res := a.node.ApplyFramesCtx(trace.ContextWithRemote(context.Background(), sc), decoded)
	if res.Applied == 0 {
		t.Fatalf("nothing applied: %+v", res)
	}
	entries, dropped := a.node.DrainLineage()
	if dropped != 0 || len(entries) != res.Applied {
		t.Fatalf("lineage recorded %d entries (%d dropped), want %d", len(entries), dropped, res.Applied)
	}
	for _, e := range entries {
		if e.Trace != sender.TraceID {
			t.Fatalf("entry %+v recorded trace %s, want the sender's %s", e, e.Trace, sender.TraceID)
		}
		if e.Origin != "b" || e.Version <= 0 {
			t.Fatalf("bogus lineage entry %+v", e)
		}
	}
	if again, _ := a.node.DrainLineage(); len(again) != 0 {
		t.Fatalf("drain did not empty the ring: %d entries remain", len(again))
	}

	// An untraced apply (no tracer, no annotation) records the zero trace —
	// the "state out of thin air" signature the simulator's gate rejects.
	train(b, datagen.RCV1Like(42).Take(50))
	if _, _, err := b.node.PublishLocal(); err != nil {
		t.Fatal(err)
	}
	res = a.node.ApplyFrames(b.node.BuildFrames(map[string]int64{}, true))
	if res.Applied == 0 {
		t.Fatalf("nothing applied on the second exchange: %+v", res)
	}
	entries, _ = a.node.DrainLineage()
	if len(entries) != res.Applied {
		t.Fatalf("lineage recorded %d entries, want %d", len(entries), res.Applied)
	}
	for _, e := range entries {
		if !e.Trace.IsZero() {
			t.Fatalf("untraced apply recorded trace %s, want zero", e.Trace)
		}
	}
}
