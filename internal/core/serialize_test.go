package core

import (
	"bytes"
	"strings"
	"testing"

	"wmsketch/internal/linear"
	"wmsketch/internal/stream"
)

func trainAWM(t *testing.T, n int) *AWMSketch {
	t.Helper()
	gen := newPlanted(1000, 5, defaultPlantedWeights(), 11)
	a := NewAWMSketch(Config{Width: 256, Depth: 1, HeapSize: 32, Lambda: 1e-4, Seed: 3})
	for i := 0; i < n; i++ {
		ex := gen.next()
		a.Update(ex.X, ex.Y)
	}
	return a
}

func TestAWMSketchRoundTripAndResume(t *testing.T) {
	a := trainAWM(t, 3000)
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAWMSketch(&buf, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 1000; i++ {
		if got.Estimate(i) != a.Estimate(i) {
			t.Fatalf("estimate mismatch for feature %d", i)
		}
	}
	if got.ActiveSetSize() != a.ActiveSetSize() {
		t.Fatalf("active set size %d/%d", got.ActiveSetSize(), a.ActiveSetSize())
	}
	// Resumed training must stay bit-identical to uninterrupted training.
	gen1 := newPlanted(1000, 5, defaultPlantedWeights(), 99)
	gen2 := newPlanted(1000, 5, defaultPlantedWeights(), 99)
	for i := 0; i < 500; i++ {
		e1, e2 := gen1.next(), gen2.next()
		a.Update(e1.X, e1.Y)
		got.Update(e2.X, e2.Y)
	}
	for i := uint32(0); i < 1000; i++ {
		if got.Estimate(i) != a.Estimate(i) {
			t.Fatalf("post-resume estimate mismatch for feature %d", i)
		}
	}
}

func TestLoadCustomLossAndSchedule(t *testing.T) {
	a := NewAWMSketch(Config{Width: 64, Depth: 1, HeapSize: 8, Seed: 1,
		Loss: linear.NewSmoothedHinge(), Schedule: linear.Constant{Eta0: 0.5}})
	a.Update(stream.OneHot(3), 1)
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadAWMSketch(&buf, linear.NewSmoothedHinge(), linear.Constant{Eta0: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Same next update on both must agree (behaviour restored by caller).
	a.Update(stream.OneHot(3), 1)
	got.Update(stream.OneHot(3), 1)
	if got.Estimate(3) != a.Estimate(3) {
		t.Fatal("custom loss/schedule resume diverged")
	}
}

func TestSerializeErrors(t *testing.T) {
	if _, err := LoadAWMSketch(strings.NewReader("nope"), nil, nil); err == nil {
		t.Error("garbage input must error")
	}
	// Sharded blob into AWM loader: magic mismatch.
	sh := NewSharded(Config{Width: 64, Depth: 1, HeapSize: 8, Seed: 3}, ShardedOptions{Workers: 1, SyncEvery: -1})
	defer sh.Close()
	var buf bytes.Buffer
	if _, err := sh.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAWMSketch(&buf, nil, nil); err == nil {
		t.Error("magic mismatch must error")
	}
	// Truncated stream.
	buf.Reset()
	if _, err := trainAWM(t, 100).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()/2]
	if _, err := LoadAWMSketch(bytes.NewReader(short), nil, nil); err == nil {
		t.Error("truncated stream must error")
	}
}
