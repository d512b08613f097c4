package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// TestFaultFreeFleetConvergesExactly: with no faults, after training stops
// and the fleet quiesces, every node's served view is bit-identical to the
// union baseline — gossip mixing is exact, not approximate.
func TestFaultFreeFleetConvergesExactly(t *testing.T) {
	rep, err := Run(Scenario{
		Nodes:       16,
		Rounds:      40,
		TrainRounds: 25,
		Seed:        3,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullySynced != rep.LiveNodes {
		t.Fatalf("only %d/%d nodes fully synced with no faults", rep.FullySynced, rep.LiveNodes)
	}
	if rep.MaxRelErr != 0 {
		t.Fatalf("fault-free convergence is not exact: max rel err %g", rep.MaxRelErr)
	}
	if rep.Dropped != 0 || rep.Corrupted != 0 || rep.PartitionRefusals != 0 {
		t.Fatalf("faults injected in a fault-free run: %+v", rep)
	}
}

// TestSameSeedSameRun: the simulator is deterministic — two runs of the
// same scenario produce identical fault schedules and identical outcomes.
func TestSameSeedSameRun(t *testing.T) {
	sc := Scenario{Nodes: 12, Rounds: 30, TrainRounds: 20, Seed: 9, Loss: 0.2, Corrupt: 0.05}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.RPCs != b.RPCs || a.Dropped != b.Dropped || a.Corrupted != b.Corrupted ||
		a.MaxRelErr != b.MaxRelErr || a.BytesOnWire != b.BytesOnWire {
		t.Fatalf("same seed, different runs:\n%+v\n%+v", a, b)
	}
}

// TestCorruptionNeverReachesState: heavy corruption must surface as
// rejected frames and failed rounds, never as divergent model state — the
// fleet still converges because every corrupt stream is refused whole.
func TestCorruptionNeverReachesState(t *testing.T) {
	rep, err := Run(Scenario{
		Nodes:       12,
		Rounds:      50,
		TrainRounds: 30,
		Seed:        11,
		Corrupt:     0.15,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupted == 0 {
		t.Fatal("corrupt=0.15 injected nothing")
	}
	if rep.MaxRelErr > RelErrGate {
		t.Fatalf("corruption leaked into state: max rel err %g", rep.MaxRelErr)
	}
	// The hard case for the byte-accounting invariant: corrupted streams
	// are journaled by nobody and counted by nobody, so the registries must
	// still match the journal exactly.
	if !rep.MetricsConsistent {
		t.Fatalf("metric registries diverged from the wire journal under corruption: %+v", rep)
	}
	if rep.MetricPullBytes == 0 || rep.MetricPushBytes == 0 {
		t.Fatalf("no bytes counted: %+v", rep)
	}
	// Corruption is also the hard case for lineage: a flipped byte in the
	// header's trace annotation must fail the header CRC and reject the
	// stream — it must never surface as an apply under a garbage trace id.
	if !rep.LineageConsistent {
		t.Fatalf("lineage gate failed under corruption: %d applies, %d violations, %d dropped",
			rep.LineageApplies, rep.LineageViolations, rep.LineageDropped)
	}
}

// TestMetricsMatchJournalUnderChurn: loss + corruption + churn together.
// Dead nodes' registries freeze at death, exactly when the journal stops
// recording their traffic, so fleet-wide sums (dead nodes included) must
// still equal the journal byte for byte and frame for frame.
func TestMetricsMatchJournalUnderChurn(t *testing.T) {
	rep, err := Run(Scenario{
		Nodes:       16,
		Rounds:      40,
		TrainRounds: 25,
		Seed:        13,
		Loss:        0.15,
		Corrupt:     0.08,
		ChurnRound:  12,
		ChurnFrac:   0.25,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DeadNodes == 0 || rep.Corrupted == 0 || rep.Dropped == 0 {
		t.Fatalf("fault schedule did not fire: %+v", rep)
	}
	if !rep.MetricsConsistent {
		t.Fatalf("metric registries diverged from the wire journal: journal pull=%d push=%d, registry pull=%d push=%d",
			rep.JournalPullBytes, rep.JournalPushBytes, rep.MetricPullBytes, rep.MetricPushBytes)
	}
	if !rep.LineageConsistent || rep.LineageApplies == 0 {
		t.Fatalf("lineage gate failed under loss+corruption+churn: %d applies, %d violations, %d dropped",
			rep.LineageApplies, rep.LineageViolations, rep.LineageDropped)
	}
}

// TestAcceptanceScenario is the CI robustness gate: 100 nodes, 10% message
// loss, one 30-round partition, 20% churn, fixed seed. Survivors must
// converge within the relative-error gate, and every churned-out node's
// origin must weigh exactly zero in every survivor's view. The run is
// deterministic, so its report must also equal the committed
// BENCH_sim.json byte for byte.
func TestAcceptanceScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("100-node scenario skipped in -short")
	}
	rep, err := Run(withLog(Default100(), t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.LiveNodes != 80 || rep.DeadNodes != 20 {
		t.Fatalf("churn: %d live / %d dead, want 80/20", rep.LiveNodes, rep.DeadNodes)
	}
	if rep.Dropped == 0 || rep.PartitionRefusals == 0 || rep.Corrupted == 0 {
		t.Fatalf("fault schedule did not fire: %+v", rep)
	}
	if !rep.LineageConsistent || rep.LineageApplies == 0 {
		t.Fatalf("causal-lineage gate failed: %d applies, %d violations, %d dropped",
			rep.LineageApplies, rep.LineageViolations, rep.LineageDropped)
	}
	if rep.MaxRelErr > RelErrGate {
		t.Fatalf("max relative error %.4g exceeds the %.0f%% gate (mean %.4g, %d/%d synced)",
			rep.MaxRelErr, RelErrGate*100, rep.MeanRelErr, rep.FullySynced, rep.LiveNodes)
	}
	if rep.MaxDeadWeight != 0 {
		t.Fatalf("a dead origin still weighs %g in a survivor's view; origin GC failed", rep.MaxDeadWeight)
	}
	if !rep.MetricsConsistent {
		t.Fatalf("metric registries diverged from the wire journal: journal pull=%d push=%d, registry pull=%d push=%d",
			rep.JournalPullBytes, rep.JournalPushBytes, rep.MetricPullBytes, rep.MetricPushBytes)
	}
	if rep.OriginsGCed == 0 {
		t.Fatal("no origins were tombstoned despite 20%% churn")
	}
	if !rep.Converged {
		t.Fatalf("report not marked converged: %+v", rep)
	}
	// Bytes-on-wire sanity ceiling: the whole 130-round, 100-node run must
	// stay within a fixed transfer budget, or delta compression/digests
	// have regressed.
	const bytesBudget = int64(2 << 30)
	if rep.BytesOnWire <= 0 || rep.BytesOnWire > bytesBudget {
		t.Fatalf("bytes on wire %d outside (0, %d]", rep.BytesOnWire, bytesBudget)
	}
	t.Logf("acceptance: %.1f MB on wire, %d RPCs, %d dropped, %d partition refusals, %d GCed",
		float64(rep.BytesOnWire)/1e6, rep.RPCs, rep.Dropped, rep.PartitionRefusals, rep.OriginsGCed)
	// The peak RSS is what ROADMAP item 10's memory gate reads. It covers
	// the whole test process so far, so it measures this scenario when the
	// test runs alone, as make bench-sim runs it.
	if kb, ok := peakRSS(); ok {
		t.Logf("acceptance: peak RSS %.1f MiB (VmHWM %d kB)", float64(kb)/1024, kb)
	} else {
		t.Log("acceptance: peak RSS not read: no VmHWM in /proc/self/status")
	}

	// The byte pin: any change to the wire, the fault schedule, membership
	// or mixing shows up here. A change that is meant to move the report
	// re-records BENCH_sim.json by hand from the report printed below.
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile(filepath.Join("..", "..", "..", "BENCH_sim.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report differs from BENCH_sim.json; observed report:\n%s", got)
	}
}

// peakRSS returns the process's peak resident set size in kB, VmHWM in
// /proc/self/status, and false where that file or line is missing.
func peakRSS() (int64, bool) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb, err == nil
		}
	}
	return 0, false
}

func withLog(sc Scenario, t *testing.T) Scenario {
	sc.Logf = t.Logf
	return sc
}

// BenchmarkSimRun runs the acceptance scenario at several fleet sizes, so
// the cost of a round can be fitted against the number of nodes. Besides
// time and allocations per run it reports, per simulated round, the wall
// time (ns/round), the bytes allocated (B/round) and the gossip bytes the
// transport delivered (bytes/round). A 200-node run takes about a minute;
// run it on its own, with -benchtime 1x.
func BenchmarkSimRun(b *testing.B) {
	for _, nodes := range []int{25, 50, 100, 200} {
		b.Run(strconv.Itoa(nodes), func(b *testing.B) {
			sc := Default100()
			sc.Nodes = nodes
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var wire int64
			for i := 0; i < b.N; i++ {
				rep, err := Run(sc)
				if err != nil {
					b.Fatal(err)
				}
				wire += rep.JournalPullBytes + rep.JournalPushBytes
			}
			runtime.ReadMemStats(&after)
			rounds := float64(b.N * sc.Rounds)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/rounds, "ns/round")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/rounds, "B/round")
			b.ReportMetric(float64(wire)/rounds, "bytes/round")
		})
	}
}
