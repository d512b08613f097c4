package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"time"

	"wmsketch/internal/cluster"
	"wmsketch/internal/core"
	"wmsketch/internal/hashing"
	"wmsketch/internal/server"
	"wmsketch/internal/sketch"
	"wmsketch/internal/stream"
	"wmsketch/internal/trace"
	"wmsketch/internal/wire"
)

// layerReps is how often each layer measurement repeats; the median is
// reported.
const layerReps = 3

// sink keeps measured calls from being optimized away.
var sink float64

// replayLayers pushes the workload's own inputs, with its geometry, through
// each layer's public functions in the order the server calls them, and
// reports what each costs. The figures are per-layer metrics: they carry no
// bound and explain the end-to-end numbers of the same workload.
func replayLayers(p params, in *inputs, rep *report) error {
	cfg := in.opt.Config
	frames := in.pools[0].frames
	batches := in.pools[0].batches
	var sample []stream.Example
	for _, b := range batches {
		sample = append(sample, b...)
	}

	rep.layer("hashing.buckets_ns", "ns", medianOf(layerReps, func() float64 { return replayHashing(cfg, sample) }))
	add, est := replaySketchOps(cfg, sample)
	rep.layer("sketch.addat_ns", "ns", add)
	rep.layer("sketch.estimateat_ns", "ns", est)
	if err := replayDiff(cfg, sample, rep); err != nil {
		return err
	}

	awmNS := medianOf(layerReps, func() float64 { return replayAWM(in, sample, rep) })
	rep.layer("core.awm_update_ns", "ns", awmNS)
	rep.layer("core.active_hit_share", "fraction", activeHitShare(in, sample))
	shardedNS := medianOf(layerReps, func() float64 { return replaySharded(in, batches, rep) })
	rep.layer("core.sharded_update_ns", "ns", shardedNS)
	if err := replayCoreQueries(in, batches, rep); err != nil {
		return err
	}
	rep.layer("core.mix_ms", "ms", replayMix(in, sample))

	replayWire(frames, batches, rep)
	codecNS := medianOf(layerReps, func() float64 { return replayCodec(in, batches) })

	// The two server rungs run the sharded backend with two workers, like
	// the rungs below them, whatever backend the workload serves.
	ladderOpt := in.opt
	ladderOpt.Backend = server.BackendSharded
	var rungErr error
	pipeNS := medianOf(layerReps, func() float64 {
		pl := newPipeListener()
		ns, err := serverRung(ladderOpt, frames, batches, pl, pl.dial)
		rungErr = errors.Join(rungErr, err)
		return ns
	})
	tcpNS := medianOf(layerReps, func() float64 {
		ln, err := listen()
		if err != nil {
			rungErr = errors.Join(rungErr, err)
			return 0
		}
		ns, err := serverRung(ladderOpt, frames, batches, ln, func() (net.Conn, error) {
			return net.DialTimeout("tcp", ln.Addr().String(), 10*time.Second)
		})
		rungErr = errors.Join(rungErr, err)
		return ns
	})
	if rungErr != nil {
		return fmt.Errorf("server rung: %w", rungErr)
	}
	rep.layer("server.bin_pipe_ns", "ns", pipeNS)
	rep.layer("server.tcp_share", "fraction", (tcpNS-pipeNS)/tcpNS)
	rep.layer("ladder.awm_ns", "ns", awmNS)
	rep.layer("ladder.sharded_ns", "ns", shardedNS)
	rep.layer("ladder.sharded_add_ns", "ns", shardedNS-awmNS)
	rep.layer("ladder.codec_ns", "ns", codecNS)
	rep.layer("ladder.codec_add_ns", "ns", codecNS-shardedNS)
	rep.layer("ladder.pipe_ns", "ns", pipeNS)
	rep.layer("ladder.pipe_add_ns", "ns", pipeNS-codecNS)
	rep.layer("ladder.tcp_ns", "ns", tcpNS)
	rep.layer("ladder.tcp_add_ns", "ns", tcpNS-pipeNS)

	if err := replayHandlers(in, rep); err != nil {
		return err
	}
	if err := replayCluster(p, in, rep); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	rep.layer("trace.span_ns", "ns", medianOf(layerReps, replaySpan))
	return nil
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// replayHashing times Family.BucketsSigns per feature.
func replayHashing(cfg core.Config, sample []stream.Example) float64 {
	fam := hashing.NewFamily(cfg.Depth, cfg.Seed)
	buckets := make([]int32, cfg.Depth)
	signs := make([]float64, cfg.Depth)
	n := 0
	began := time.Now()
	for _, ex := range sample {
		for _, f := range ex.X {
			fam.BucketsSigns(f.Index, cfg.Width, buckets, signs)
			n++
		}
	}
	d := time.Since(began)
	sink += signs[0]
	return nsPer(d, n)
}

// replaySketchOps locates every feature once, then times AddAt and
// EstimateAt at the recorded locations, per feature.
func replaySketchOps(cfg core.Config, sample []stream.Example) (addNS, estNS float64) {
	cs := sketch.NewCountSketch(cfg.Depth, cfg.Width, cfg.Seed)
	var locs []sketch.Loc
	for _, ex := range sample {
		for _, f := range ex.X {
			locs = append(locs, make([]sketch.Loc, cfg.Depth)...)
			cs.Locate(f.Index, locs[len(locs)-cfg.Depth:])
		}
	}
	n := len(locs) / cfg.Depth
	addNS = medianOf(layerReps, func() float64 {
		began := time.Now()
		for i := 0; i < n; i++ {
			cs.AddAt(locs[i*cfg.Depth:(i+1)*cfg.Depth], 1e-3)
		}
		return nsPer(time.Since(began), n)
	})
	estNS = medianOf(layerReps, func() float64 {
		s := 0.0
		began := time.Now()
		for i := 0; i < n; i++ {
			s += cs.EstimateAt(locs[i*cfg.Depth : (i+1)*cfg.Depth])
		}
		d := time.Since(began)
		sink += s
		return nsPer(d, n)
	})
	return addNS, estNS
}

// diffChunk is how many examples a node learns between two published
// versions in the gossip workload.
const diffChunk = 512

// replayDiff publishes a model, trains it on one more chunk, and times the
// sparse delta between the two versions and its application.
func replayDiff(cfg core.Config, sample []stream.Example, rep *report) error {
	a := core.NewAWMSketch(cfg)
	half := len(sample) / 2
	for _, ex := range sample[:half] {
		a.Update(ex.X, ex.Y)
	}
	var diffs, applies, shares []float64
	for r := 0; r < layerReps; r++ {
		base, err := a.ModelSnapshot()
		if err != nil {
			return err
		}
		lo := min(half+r*diffChunk, len(sample))
		for _, ex := range sample[lo:min(lo+diffChunk, len(sample))] {
			a.Update(ex.X, ex.Y)
		}
		cur, err := a.ModelSnapshot()
		if err != nil {
			return err
		}
		began := time.Now()
		changes, err := sketch.Diff(base.CS, cur.CS)
		if err != nil {
			return err
		}
		diffs = append(diffs, ms(time.Since(began)))
		target := base.CS.Clone()
		began = time.Now()
		if err := target.ApplyDiff(changes); err != nil {
			return err
		}
		applies = append(applies, ms(time.Since(began)))
		shares = append(shares, float64(len(changes))/float64(base.CS.Size()))
	}
	rep.layer("sketch.diff_ms", "ms", median(diffs))
	rep.layer("sketch.applydiff_ms", "ms", median(applies))
	rep.layer("sketch.diff_changed_share", "fraction", median(shares))
	return nil
}

// warmAWM is a single-threaded AWM-Sketch trained on the first node's
// warm-start prefix.
func warmAWM(in *inputs) *core.AWMSketch {
	a := core.NewAWMSketch(in.opt.Config)
	for _, ex := range in.warm[0] {
		a.Update(ex.X, ex.Y)
	}
	return a
}

// replayAWM times the fused single-threaded update per example and counts
// its allocations.
func replayAWM(in *inputs, sample []stream.Example, rep *report) float64 {
	a := warmAWM(in)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	began := time.Now()
	for _, ex := range sample {
		a.Update(ex.X, ex.Y)
	}
	d := time.Since(began)
	runtime.ReadMemStats(&after)
	rep.layer("core.awm_allocs", "count", float64(after.Mallocs-before.Mallocs)/float64(len(sample)))
	return nsPer(d, len(sample))
}

// activeHitShare is the share of feature occurrences that hit the active
// set, measured just before each update: the part of the work the top-k
// heap serves instead of the sketch.
func activeHitShare(in *inputs, sample []stream.Example) float64 {
	a := warmAWM(in)
	hits, total := 0, 0
	for _, ex := range sample {
		for _, f := range ex.X {
			if a.InActiveSet(f.Index) {
				hits++
			}
			total++
		}
		a.Update(ex.X, ex.Y)
	}
	return float64(hits) / float64(total)
}

// replaySharded times UpdateBatch plus a final Sync per example, and the
// time the caller spent blocked inside UpdateBatch.
func replaySharded(in *inputs, batches [][]stream.Example, rep *report) float64 {
	sh := core.NewSharded(in.opt.Config, in.opt.Sharded)
	defer sh.Close()
	n := 0
	var enqueue time.Duration
	began := time.Now()
	for _, b := range batches {
		t := time.Now()
		sh.UpdateBatch(b)
		enqueue += time.Since(t)
		n += len(b)
	}
	sh.Sync()
	d := time.Since(began)
	rep.layer("core.enqueue_wait_ns", "ns", nsPer(enqueue, n))
	return nsPer(d, n)
}

// replayCoreQueries times Sync merges, snapshot-view predict and top-k,
// and checkpoint write and load of the workload's backend.
func replayCoreQueries(in *inputs, batches [][]stream.Example, rep *report) error {
	sh := core.NewSharded(in.opt.Config, in.opt.Sharded)
	defer sh.Close()
	for _, b := range batches {
		sh.UpdateBatch(b)
	}
	var syncs []float64
	for r := 0; r < 5; r++ {
		sh.UpdateBatch(batches[r%len(batches)])
		began := time.Now()
		sh.Sync()
		syncs = append(syncs, ms(time.Since(began)))
	}
	rep.layer("core.sync_ms", "ms", median(syncs))
	rep.layer("core.predict_ns", "ns", medianOf(layerReps, func() float64 {
		s := 0.0
		began := time.Now()
		for _, ex := range in.heldout {
			s += sh.Predict(ex.X)
		}
		d := time.Since(began)
		sink += s
		return nsPer(d, len(in.heldout))
	}))
	rep.layer("core.topk_us", "us", medianOf(9, func() float64 {
		began := time.Now()
		top := sh.TopK(topK)
		d := time.Since(began)
		sink += float64(len(top))
		return float64(d.Nanoseconds()) / 1e3
	}))

	// The checkpoint is the workload backend's: the sharded learner, or one
	// AWM-Sketch.
	type writerTo interface {
		WriteTo(w io.Writer) (int64, error)
	}
	var model writerTo = sh
	if in.opt.Backend != server.BackendSharded {
		model = warmAWM(in)
	}
	cfg := in.opt.Config
	var writes, loads []float64
	for r := 0; r < layerReps; r++ {
		var buf bytes.Buffer
		began := time.Now()
		if _, err := model.WriteTo(&buf); err != nil {
			return err
		}
		writes = append(writes, ms(time.Since(began)))
		began = time.Now()
		if in.opt.Backend == server.BackendSharded {
			loaded, err := core.LoadSharded(bytes.NewReader(buf.Bytes()), cfg.Loss, cfg.Schedule, in.opt.Sharded)
			if err != nil {
				return err
			}
			loads = append(loads, ms(time.Since(began)))
			loaded.Close()
		} else {
			if _, err := core.LoadAWMSketch(bytes.NewReader(buf.Bytes()), cfg.Loss, cfg.Schedule); err != nil {
				return err
			}
			loads = append(loads, ms(time.Since(began)))
		}
	}
	rep.layer("core.ckpt_write_ms", "ms", median(writes))
	rep.layer("core.ckpt_load_ms", "ms", median(loads))
	return nil
}

// replayMix times MixSnapshots over two models trained on the two halves
// of the sample, as a two-shard merge or a two-node cluster view does.
func replayMix(in *inputs, sample []stream.Example) float64 {
	cfg := in.opt.Config
	var snaps []core.Snapshot
	for i, part := range [][]stream.Example{sample[:len(sample)/2], sample[len(sample)/2:]} {
		a := core.NewAWMSketch(cfg)
		for _, ex := range part {
			a.Update(ex.X, ex.Y)
		}
		s, err := a.ModelSnapshot()
		if err != nil {
			return 0
		}
		s.Origin = strconv.Itoa(i)
		snaps = append(snaps, s)
	}
	opt := core.MixOptions{Depth: cfg.Depth, Width: cfg.Width, Seed: cfg.Seed, HeapSize: cfg.HeapSize}
	return medianOf(5, func() float64 {
		began := time.Now()
		m, err := core.MixSnapshots(snaps, opt)
		d := time.Since(began)
		if err != nil || m == nil {
			return 0
		}
		return ms(d)
	})
}

// replayWire times the binary codec per example and the framing per frame.
func replayWire(frames [][]byte, batches [][]stream.Example, rep *report) {
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	rep.layer("wire.encode_ns", "ns", medianOf(layerReps, func() float64 {
		var payload []byte
		began := time.Now()
		for _, b := range batches {
			payload, _ = wire.AppendUpdateRequest(payload[:0], b)
		}
		return nsPer(time.Since(began), n)
	}))
	rep.layer("wire.decode_ns", "ns", medianOf(layerReps, func() float64 {
		var nnz []int
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		began := time.Now()
		for _, f := range frames {
			_, nnz, _ = wire.DecodeUpdateRequest(f, nnz)
		}
		d := time.Since(began)
		runtime.ReadMemStats(&after)
		rep.layer("wire.decode_allocs", "count", float64(after.Mallocs-before.Mallocs)/float64(n))
		return nsPer(d, n)
	}))
	rep.layer("wire.frame_ns", "ns", medianOf(layerReps, func() float64 {
		var buf bytes.Buffer
		var scratch []byte
		began := time.Now()
		for i, f := range frames {
			buf.Reset()
			_, _ = wire.WriteFrame(&buf, wire.OpUpdate, uint32(i), f)
			_, scratch, _ = wire.ReadRequestFrame(&buf, scratch)
		}
		return nsPer(time.Since(began), len(frames))
	}))
	wireBytes := 0
	for _, f := range frames {
		wireBytes += wire.FrameWireSize(len(f))
	}
	rep.layer("wire.bytes_per_example", "bytes", float64(wireBytes)/float64(n))
}

// replayCodec is the ladder rung above the sharded learner: every batch is
// encoded and decoded before UpdateBatch, and a final Sync makes it learned.
func replayCodec(in *inputs, batches [][]stream.Example) float64 {
	sh := core.NewSharded(in.opt.Config, in.opt.Sharded)
	defer sh.Close()
	var payload []byte
	var nnz []int
	n := 0
	began := time.Now()
	for _, b := range batches {
		payload, _ = wire.AppendUpdateRequest(payload[:0], b)
		var decoded []stream.Example
		decoded, nnz, _ = wire.DecodeUpdateRequest(payload, nnz)
		sh.UpdateBatch(decoded)
		n += len(b)
	}
	sh.Sync()
	return nsPer(time.Since(began), n)
}

// serverRung boots a fresh server on ln, sends every frame over two
// binary connections with ingestWindow frames in flight each, then syncs
// through the HTTP handler; it returns the wall time per example.
func serverRung(opt server.Options, frames [][]byte, batches [][]stream.Example, ln net.Listener, dial func() (net.Conn, error)) (float64, error) {
	srv, err := server.New(opt)
	if err != nil {
		ln.Close()
		return 0, err
	}
	var serveWG sync.WaitGroup
	serveWG.Add(1)
	go func() {
		defer serveWG.Done()
		_ = srv.ServeBin(ln)
	}()
	defer func() {
		_ = ln.Close()
		serveWG.Wait()
		_ = srv.Close()
	}()
	clients := make([]*wire.Client, ingestConns)
	for c := range clients {
		conn, err := dial()
		if err != nil {
			return 0, err
		}
		if clients[c], err = wire.NewClient(conn); err != nil {
			conn.Close()
			return 0, err
		}
		defer clients[c].Close()
	}
	n := 0
	for _, b := range batches {
		n += len(b)
	}
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	began := time.Now()
	for c, cl := range clients {
		wg.Add(1)
		go func(c int, cl *wire.Client) {
			defer wg.Done()
			f := newInflight(cl, ingestWindow, nil)
			pending := 0
			for i := c; i < len(frames) || pending > 0; {
				if i < len(frames) && pending < ingestWindow {
					if err := f.send(wire.OpUpdate, frames[i], i, time.Now(), -1); err != nil {
						errs[c] = err
						break
					}
					pending++
					i += len(clients)
					continue
				}
				o := <-f.out
				pending--
				if o.err == nil && o.applied != len(batches[o.tag]) {
					o.err = fmt.Errorf("update applied %d of %d examples", o.applied, len(batches[o.tag]))
				}
				errs[c] = errors.Join(errs[c], o.err)
			}
			f.wg.Wait()
		}(c, cl)
	}
	wg.Wait()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sync", bytes.NewReader([]byte("{}"))))
	d := time.Since(began)
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("sync: HTTP %d", rec.Code)
	}
	return nsPer(d, n), errors.Join(errs...)
}

// replayHandlers times the JSON handlers through ServeHTTP with an
// in-memory recorder, plus server construction and checkpoint restore.
func replayHandlers(in *inputs, rep *report) error {
	var news, restores []float64
	for r := 0; r < 5; r++ {
		began := time.Now()
		srv, err := server.New(in.opt)
		if err != nil {
			return err
		}
		news = append(news, ms(time.Since(began)))
		began = time.Now()
		err = srv.Restore(in.ckpts[0])
		restores = append(restores, ms(time.Since(began)))
		if cerr := srv.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	rep.layer("server.new_ms", "ms", median(news))
	rep.layer("server.restore_ms", "ms", median(restores))

	srv, err := server.New(in.opt)
	if err != nil {
		return err
	}
	defer srv.Close()
	if err := srv.Restore(in.ckpts[0]); err != nil {
		return err
	}
	call := func(method, target string, body []byte) (time.Duration, error) {
		req := httptest.NewRequest(method, target, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		began := time.Now()
		srv.ServeHTTP(rec, req)
		d := time.Since(began)
		if rec.Code != http.StatusOK {
			return d, fmt.Errorf("%s %s: HTTP %d: %s", method, target, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return d, nil
	}
	timeAll := func(reps int, method, target string, body func(i int) []byte) (float64, error) {
		var v []float64
		for i := 0; i < reps; i++ {
			d, err := call(method, target, body(i))
			if err != nil {
				return 0, err
			}
			v = append(v, float64(d.Nanoseconds()))
		}
		return median(v), nil
	}
	updates := make([][]byte, 0, 16)
	for _, b := range in.pools[0].batches[:min(16, len(in.pools[0].batches))] {
		body, err := json.Marshal(server.UpdateRequest{Examples: exampleJSON(b[:min(64, len(b))])})
		if err != nil {
			return err
		}
		updates = append(updates, body)
	}
	type leg struct {
		name, unit, method, target string
		body                       func(i int) []byte
		reps                       int
	}
	legs := []leg{
		{"server.json_update_us", "us", "POST", "/v1/update", func(i int) []byte { return updates[i%len(updates)] }, 64},
		{"server.json_predict_us", "us", "POST", "/v1/predict", func(i int) []byte { return in.predJSON[i*jsonStride%len(in.predJSON)] }, 256},
		{"server.json_estimate_us", "us", "POST", "/v1/estimate", func(int) []byte { return in.estJSON }, 256},
		{"server.json_topk_us", "us", "GET", "/v1/topk?k=" + strconv.Itoa(topK), func(int) []byte { return nil }, 64},
		{"server.sync_ms", "ms", "POST", "/v1/sync", func(int) []byte { return []byte("{}") }, 16},
	}
	for _, l := range legs {
		ns, err := timeAll(l.reps, l.method, l.target, l.body)
		if err != nil {
			return err
		}
		if l.unit == "ms" {
			rep.layer(l.name, l.unit, ns/1e6)
		} else {
			rep.layer(l.name, l.unit, ns/1e3)
		}
	}
	return nil
}

// replayCluster runs three fresh awm nodes in cluster mode on the
// workload's geometry and data: chunks of updates, a sync and one
// GossipOnce per node per chunk, then rounds until the digests agree. It
// then times the pieces of one exchange through the cluster package's
// public functions.
func replayCluster(p params, in *inputs, rep *report) error {
	opt := in.opt
	opt.Backend = server.BackendAWM
	const nodesN = 3
	specs := make([]nodeSpec, nodesN)
	for i := range specs {
		specs[i] = nodeSpec{opt: opt, bins: 1}
	}
	nodes, err := boot(specs, true)
	if err != nil {
		return err
	}
	defer closeAll(nodes)
	// Node i learns frames i, i+3, ... of its pool.
	pools := make([]pool, nodesN)
	next := make([]int, nodesN)
	for i := range pools {
		pools[i] = in.pools[i%len(in.pools)]
		next[i] = i % len(pools[i].frames)
	}
	feed := func(i, frames int) error {
		f := newInflight(nodes[i].bins[0], frames, nil)
		sent := 0
		for k := 0; k < frames; k++ {
			j := next[i]
			next[i] = (next[i] + nodesN) % len(pools[i].frames)
			if err := f.send(wire.OpUpdate, pools[i].frames[j], j, time.Now(), -1); err != nil {
				f.wg.Wait()
				return err
			}
			sent++
		}
		var err error
		for ; sent > 0; sent-- {
			o := <-f.out
			err = errors.Join(err, o.err)
		}
		f.wg.Wait()
		return err
	}
	var rounds []float64
	var gossip time.Duration
	round := func() {
		for _, n := range nodes {
			began := time.Now()
			n.srv.ClusterNode().GossipOnce()
			d := time.Since(began)
			gossip += d
			rounds = append(rounds, ms(d))
		}
	}
	framesPerChunk := max(1, diffChunk/in.batch)
	for chunk := 0; chunk < p.size.pick(12, 3); chunk++ {
		for i, n := range nodes {
			if err := feed(i, framesPerChunk); err != nil {
				return err
			}
			if _, err := n.post("/v1/sync", []byte("{}")); err != nil {
				return err
			}
		}
		round()
	}
	agreed := false
	for r := 1; r <= maxSettleRounds && !agreed; r++ {
		round()
		agreed = r >= 2 && digestsAgree(nodes)
	}
	if !agreed {
		return fmt.Errorf("digests still differ after %d settle rounds", maxSettleRounds)
	}
	var bytesMoved, fulls, deltas int64
	for _, n := range nodes {
		bytesMoved += n.gossipBytes.Load()
		st := n.srv.ClusterNode().Status()
		fulls += st.FullsOut
		deltas += st.DeltasOut
	}
	rep.layer("cluster.round_ms", "ms", median(rounds))
	rep.layer("cluster.rounds", "count", float64(len(rounds)))
	rep.layer("cluster.bytes_per_round", "bytes", float64(bytesMoved)/float64(len(rounds)))
	rep.layer("cluster.delta_share", "fraction", float64(deltas)/float64(max(1, fulls+deltas)))
	rep.layer("cluster.converge_s", "s", gossip.Seconds())
	rep.layer("cluster.gossip_mb", "MB", float64(bytesMoved)/1e6)

	// One exchange from node 0 to node 1, piece by piece.
	a, b := nodes[0].srv.ClusterNode(), nodes[1].srv.ClusterNode()
	var publish, build, write, read, apply []float64
	for r := 0; r < layerReps; r++ {
		if err := feed(0, framesPerChunk); err != nil {
			return err
		}
		began := time.Now()
		if _, _, err := a.PublishLocal(); err != nil {
			return err
		}
		publish = append(publish, ms(time.Since(began)))
		began = time.Now()
		frames := a.BuildFrames(b.Digest(), false)
		build = append(build, ms(time.Since(began)))
		var buf bytes.Buffer
		began = time.Now()
		if _, err := cluster.WriteFrames(&buf, frames); err != nil {
			return err
		}
		write = append(write, ms(time.Since(began)))
		began = time.Now()
		got, err := cluster.ReadFrames(&buf)
		if err != nil {
			return err
		}
		read = append(read, ms(time.Since(began)))
		began = time.Now()
		res := b.ApplyFrames(got)
		apply = append(apply, ms(time.Since(began)))
		if res.Rejected > 0 || res.Applied == 0 {
			return fmt.Errorf("replayed exchange applied %d frames, rejected %d", res.Applied, res.Rejected)
		}
	}
	rep.layer("cluster.publish_ms", "ms", median(publish))
	rep.layer("cluster.build_ms", "ms", median(build))
	rep.layer("cluster.write_ms", "ms", median(write))
	rep.layer("cluster.read_ms", "ms", median(read))
	rep.layer("cluster.apply_ms", "ms", median(apply))
	return nil
}

// replaySpan times one root span's StartSpan plus Finish under the
// tracer's default sampling.
func replaySpan() float64 {
	tr := trace.New(trace.Options{})
	ctx := context.Background()
	const n = 100000
	began := time.Now()
	for i := 0; i < n; i++ {
		_, sp := tr.StartSpan(ctx, "bench.span")
		sp.Finish()
	}
	return nsPer(time.Since(began), n)
}
