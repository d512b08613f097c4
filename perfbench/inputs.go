package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"wmsketch/internal/core"
	"wmsketch/internal/datagen"
	"wmsketch/internal/linear"
	"wmsketch/internal/server"
	"wmsketch/internal/stream"
	"wmsketch/internal/wire"
)

// sizes scales the inputs: the full benchmark, or the tiny self-test.
type sizes struct{ tiny bool }

var (
	fullSize = sizes{}
	tinySize = sizes{tiny: true}
)

func (s sizes) pick(full, tiny int) int {
	if s.tiny {
		return tiny
	}
	return full
}

// workload is one named traffic mix: prepare makes its inputs from the
// seed before any clock starts, measure runs it against freshly booted
// servers and fills the report.
type workload struct {
	prepare func(p params, tmp string) (*inputs, error)
	measure func(p params, in *inputs, tr *tracer, rep *report) error
}

var workloads = map[string]workload{
	"ingest": {prepareIngest, measureIngest},
	"mixed":  {prepareMixed, measureMixed},
	"gossip": {prepareGossip, measureGossip},
}

// inputs is everything a workload sends, generated from one seeded
// internal/datagen stream: warm-start prefixes (one per node, already
// written as checkpoints), training pools pre-encoded as binary update
// frames, and a held-out set.
type inputs struct {
	opt   server.Options
	dim   int
	batch int // examples per binary update frame

	warm  [][]stream.Example // per node, in training order
	ckpts []string           // per node warm-start checkpoint
	pools []pool             // per node (ingest and mixed: one)

	heldout  []stream.Example
	predBin  [][]byte // binary predict payloads, one per held-out example
	predJSON [][]byte // JSON predict bodies for every jsonStride-th held-out example
	probes   []uint32 // feature indices every estimate probe asks for
	estJSON  []byte   // POST /v1/estimate body for probes

	// ref is the uncompressed learner the served models are judged
	// against (reference).
	ref *linear.LogReg

	// mixed only: the open-loop schedule and its JSON update bodies.
	binEvents  []event
	jsonEvents []event
	jsonPool   pool

	datagenS float64
}

// pool is a training stream cut into update frames.
type pool struct {
	frames  [][]byte           // binary OpUpdate payloads
	json    [][]byte           // JSON /v1/update bodies (mixed's JSON pool only)
	batches [][]stream.Example // the examples of each frame
}

func (pl pool) examples(frame int) int { return len(pl.batches[frame]) }

func makePool(examples []stream.Example, batch int, withJSON bool) (pool, error) {
	var pl pool
	for i := 0; i+batch <= len(examples); i += batch {
		b := examples[i : i+batch]
		if withJSON {
			body, err := json.Marshal(server.UpdateRequest{Examples: exampleJSON(b)})
			if err != nil {
				return pl, err
			}
			pl.json = append(pl.json, body)
			pl.batches = append(pl.batches, b)
			continue
		}
		payload, err := wire.AppendUpdateRequest(nil, b)
		if err != nil {
			return pl, err
		}
		pl.frames = append(pl.frames, payload)
		pl.batches = append(pl.batches, b)
	}
	return pl, nil
}

func exampleJSON(b []stream.Example) []server.ExampleJSON {
	out := make([]server.ExampleJSON, len(b))
	for i, ex := range b {
		out[i] = server.ExampleJSON{Y: ex.Y, X: featureJSON(ex.X)}
	}
	return out
}

func featureJSON(x stream.Vector) []server.FeatureJSON {
	out := make([]server.FeatureJSON, len(x))
	for i, f := range x {
		out[i] = server.FeatureJSON{I: f.Index, V: f.Value}
	}
	return out
}

// encodeHeldout pre-encodes the held-out set's predict requests and the
// estimate probe body.
func (in *inputs) encodeHeldout(rng *rand.Rand) error {
	in.predJSON = make([][]byte, len(in.heldout))
	for i, ex := range in.heldout {
		payload, err := wire.AppendPredictRequest(nil, ex.X)
		if err != nil {
			return err
		}
		in.predBin = append(in.predBin, payload)
		if i%jsonStride == 0 {
			if in.predJSON[i], err = json.Marshal(server.PredictRequest{X: featureJSON(ex.X)}); err != nil {
				return err
			}
		}
	}
	for len(in.probes) < 16 {
		in.probes = append(in.probes, uint32(rng.Intn(in.dim)))
	}
	var err error
	in.estJSON, err = json.Marshal(server.EstimateRequest{Indices: in.probes})
	return err
}

// writeCheckpoints trains each node's warm-start model on its prefix with
// the node's own backend and writes it where Restore will read it.
func (in *inputs) writeCheckpoints(tmp string) error {
	for i, warm := range in.warm {
		path := filepath.Join(tmp, "warm-"+strconv.Itoa(i)+".ckpt")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		switch in.opt.Backend {
		case server.BackendSharded:
			sh := core.NewSharded(in.opt.Config, in.opt.Sharded)
			for j := 0; j < len(warm); j += in.batch {
				sh.UpdateBatch(warm[j:min(j+in.batch, len(warm))])
			}
			_, err = sh.WriteTo(f)
			sh.Close()
		default:
			a := core.NewAWMSketch(in.opt.Config)
			for _, ex := range warm {
				a.Update(ex.X, ex.Y)
			}
			_, err = a.WriteTo(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("warm checkpoint %d: %w", i, err)
		}
		in.ckpts = append(in.ckpts, path)
	}
	return nil
}

func (in *inputs) warmSteps(node int) int64 { return int64(len(in.warm[node])) }

// serverOptions returns the production defaults of wmserve for one
// backend and geometry; tracing stays at its default sampling.
func serverOptions(backend string, width, depth int) server.Options {
	return server.Options{
		Backend: backend,
		Config: core.Config{
			Width: width, Depth: depth, HeapSize: 2048, Lambda: 1e-6, Seed: 42,
		},
		Sharded: core.ShardedOptions{Workers: 2},
	}
}

func prepareIngest(p params, tmp string) (*inputs, error) {
	began := time.Now()
	gen := datagen.URLLike(p.seed)
	in := &inputs{opt: serverOptions(server.BackendSharded, 1<<17, 3), dim: gen.Dim(), batch: 512}
	in.warm = [][]stream.Example{gen.Take(p.size.pick(32768, 2048))}
	pl, err := makePool(gen.Take(p.size.pick(65536, 4096)), in.batch, false)
	if err != nil {
		return nil, err
	}
	in.pools = []pool{pl}
	in.heldout = gen.Take(p.size.pick(4096, 256))
	if err := in.encodeHeldout(rand.New(rand.NewSource(p.seed))); err != nil {
		return nil, err
	}
	in.datagenS = time.Since(began).Seconds()
	in.reference()
	return in, in.writeCheckpoints(tmp)
}

func prepareMixed(p params, tmp string) (*inputs, error) {
	began := time.Now()
	gen := datagen.RCV1Like(p.seed)
	in := &inputs{opt: serverOptions(server.BackendSharded, 4096, 1), dim: gen.Dim(), batch: 64}
	in.warm = [][]stream.Example{gen.Take(p.size.pick(16384, 1024))}
	pl, err := makePool(gen.Take(p.size.pick(32768, 2048)), in.batch, false)
	if err != nil {
		return nil, err
	}
	in.pools = []pool{pl}
	if in.jsonPool, err = makePool(gen.Take(p.size.pick(8192, 512)), in.batch, true); err != nil {
		return nil, err
	}
	in.heldout = gen.Take(p.size.pick(8192, 128))
	rng := rand.New(rand.NewSource(p.seed))
	if err := in.encodeHeldout(rng); err != nil {
		return nil, err
	}
	in.binEvents, in.jsonEvents = mixedSchedule(p.seconds, rng)
	in.datagenS = time.Since(began).Seconds()
	in.reference()
	return in, in.writeCheckpoints(tmp)
}

func prepareGossip(p params, tmp string) (*inputs, error) {
	began := time.Now()
	gen := datagen.RCV1Like(p.seed)
	in := &inputs{opt: serverOptions(server.BackendAWM, 4096, 1), dim: gen.Dim(), batch: 64}
	const nodes = 3
	in.warm = make([][]stream.Example, nodes)
	for i, ex := range gen.Take(nodes * p.size.pick(4096, 256)) {
		in.warm[i%nodes] = append(in.warm[i%nodes], ex)
	}
	parts := make([][]stream.Example, nodes)
	for i, ex := range gen.Take(nodes * p.size.pick(16384, 1024)) {
		parts[i%nodes] = append(parts[i%nodes], ex)
	}
	for _, part := range parts {
		pl, err := makePool(part, in.batch, false)
		if err != nil {
			return nil, err
		}
		in.pools = append(in.pools, pl)
	}
	in.heldout = gen.Take(p.size.pick(8192, 128))
	if err := in.encodeHeldout(rand.New(rand.NewSource(p.seed))); err != nil {
		return nil, err
	}
	in.datagenS = time.Since(began).Seconds()
	in.reference()
	return in, in.writeCheckpoints(tmp)
}

// refPasses is how often the reference goes over the training pools. The
// served models go over them several to a hundred times in a run; a few
// passes bring the reference close enough to convergence that its error
// reflects how hard the seed's stream is.
const refPasses = 8

// reference trains the uncompressed logistic-regression learner on the
// warm-start prefixes and then refPasses times over every training frame,
// taking the pools frame by frame in turn. It is the same for every run of
// a seed, so a ratio against it moves only with the served model.
func (in *inputs) reference() {
	lr := linear.NewLogReg(linear.LogRegConfig{Lambda: in.opt.Config.Lambda, Dim: in.dim})
	for _, warm := range in.warm {
		for _, ex := range warm {
			lr.Update(ex.X, ex.Y)
		}
	}
	pools := append(append([]pool(nil), in.pools...), in.jsonPool)
	for pass := 0; pass < refPasses; pass++ {
		for k := 0; ; k++ {
			trained := false
			for _, pl := range pools {
				if k < len(pl.batches) {
					for _, ex := range pl.batches[k] {
						lr.Update(ex.X, ex.Y)
					}
					trained = true
				}
			}
			if !trained {
				break
			}
		}
	}
	in.ref = lr
}

// liveHeap returns the live heap in bytes after two forced collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setupReps is how many times a run boots its servers; setup_s is the
// median.
func setupReps(p params) int { return p.size.pick(21, 2) }

// setupNodes boots the workload's servers reps times and keeps the last
// boot; setup_s is the median boot time. Each boot runs from server.New
// through Restore of the warm-start checkpoint to the first successful
// ping on every listener.
func setupNodes(in *inputs, bins int, clustered bool, reps int, tr *tracer, parent int, rep *report) ([]*node, error) {
	specs := make([]nodeSpec, len(in.ckpts))
	for i := range specs {
		specs[i] = nodeSpec{opt: in.opt, ckpt: in.ckpts[i], bins: bins}
	}
	times := make([]float64, 0, reps)
	var nodes []*node
	for r := 0; r < reps; r++ {
		if nodes != nil {
			closeAll(nodes)
		}
		sp := tr.start("setup", parent)
		began := time.Now()
		var err error
		nodes, err = boot(specs, clustered)
		if err != nil {
			tr.end(sp)
			return nil, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(began).Seconds())
		tr.end(sp)
		rep.ok()
	}
	rep.set("setup_s", "s", median(times))
	// The restored models must hold exactly their warm-start prefixes.
	for i, n := range nodes {
		body, err := n.get(n.base + "/v1/stats")
		if err != nil {
			rep.failf("stats: %v", err)
			continue
		}
		var st server.StatsResponse
		if err := json.Unmarshal(body, &st); err != nil {
			rep.failf("stats: %v", err)
			continue
		}
		rep.check(st.Steps == in.warmSteps(i), "node %d restored %d steps, want %d", i, st.Steps, in.warmSteps(i))
	}
	return nodes, nil
}
