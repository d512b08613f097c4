// Command wmserve serves an AWM-Sketch classifier over HTTP/JSON: live
// training (/v1/update), prediction (/v1/predict), weight recovery
// (/v1/estimate, /v1/topk), operational stats (/v1/stats), and checkpoint
// save/restore (/v1/checkpoint). The learner is either AWM shards trained
// in parallel (-backend sharded) or one AWM-Sketch (-backend awm). See
// SERVING.md for the API reference.
//
// Usage:
//
//	wmserve -addr :8080 -backend sharded -workers 4 -checkpoint model.ckpt
//	wmserve -addr :8080 -bin-addr :8081     # plus the binary hot protocol
//
// On SIGINT/SIGTERM the server drains in-flight requests on both protocols
// and flushes a final checkpoint to -checkpoint (when set) before exiting.
// With -restore, an existing checkpoint at that path is loaded at boot,
// before any listener serves, so a restarted server resumes the stream
// where it left off. The API's tests live in internal/server;
// `wmbench -serve-bench` measures it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"wmsketch/internal/core"
	"wmsketch/internal/server"
	"wmsketch/internal/trace"
)

// splitPeers parses the -peers flag: comma-separated base URLs, blanks
// ignored.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		binAddr   = flag.String("bin-addr", "", "binary hot-protocol listen address (e.g. :8081; empty disables; see SERVING.md \"Binary protocol\")")
		backend   = flag.String("backend", server.BackendSharded, "learner backend: sharded (parallel AWM shards) or awm (one AWM-Sketch)")
		width     = flag.Int("width", 4096, "sketch width (buckets per row)")
		depth     = flag.Int("depth", 1, "sketch depth (rows)")
		heapSize  = flag.Int("heap", 2048, "top-weight heap / active-set capacity")
		lambda    = flag.Float64("lambda", 1e-6, "l2 regularization strength")
		seed      = flag.Int64("seed", 42, "hash seed")
		workers   = flag.Int("workers", 0, "sharded backend workers (0 = GOMAXPROCS)")
		syncEvery = flag.Int("sync-every", 0, "sharded snapshot refresh cadence in updates (0 = default, <0 disables)")
		ckpt      = flag.String("checkpoint", "", "checkpoint path: /v1/checkpoint default and final flush on shutdown")
		restore   = flag.Bool("restore", false, "restore from -checkpoint at boot when the file exists")
		authToken = flag.String("auth-token", "", "bearer token required on mutating endpoints (update/sync/checkpoint/cluster push); refused with -bin-addr")
		debugAddr = flag.String("debug-addr", "", "serve /metrics and net/http/pprof on this separate listener (e.g. 127.0.0.1:6060; empty disables)")

		peers          = flag.String("peers", "", "cluster: comma-separated peer base URLs (enables replication; see CLUSTER.md)")
		nodeID         = flag.String("node-id", "", "cluster: this node's unique id (default: this node's advertised http://addr)")
		gossipInterval = flag.Duration("gossip-interval", 2*time.Second, "cluster: anti-entropy round cadence")
		clusterHistory = flag.Int("cluster-history", 8, "cluster: snapshot versions kept as delta bases before falling back to full sync")
		gossipTimeout  = flag.Duration("gossip-timeout", 10*time.Second, "cluster: wall-clock budget for one peer's gossip round (negative disables the deadline)")
		gossipFanout   = flag.Int("gossip-fanout", 0, "cluster: peers sampled per round (0 = log2 of the peer count, negative = full sweep)")
		originGC       = flag.Duration("origin-gc", 15*time.Minute, "cluster: idle age before a departed node's model decays out of the served mix (negative disables)")

		logJSON  = flag.Bool("log-json", false, "emit structured logs as JSON lines (default: logfmt-style text)")
		logLevel = flag.String("log-level", "info", "minimum log level: debug, info, warn, or error")
	)
	flag.Parse()
	if err := checkFlags(*addr, *binAddr, *authToken, *peers, *nodeID); err != nil {
		fmt.Fprintln(os.Stderr, "wmserve:", err)
		os.Exit(2)
	}

	logger, err := buildLogger(*logJSON, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wmserve:", err)
		os.Exit(2)
	}

	opt := server.Options{
		Logger:  logger,
		Backend: *backend,
		Config: core.Config{
			Width: *width, Depth: *depth, HeapSize: *heapSize,
			Lambda: *lambda, Seed: *seed,
		},
		Sharded:        core.ShardedOptions{Workers: *workers, SyncEvery: *syncEvery},
		CheckpointPath: *ckpt,
		AuthToken:      *authToken,
	}
	if err := opt.Config.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "wmserve:", err)
		os.Exit(2)
	}
	if *peers != "" {
		self := *nodeID
		if self == "" {
			self = "http://" + *addr
		}
		opt.Cluster = server.ClusterOptions{
			Self:          self,
			Peers:         splitPeers(*peers),
			Interval:      *gossipInterval,
			HistoryDepth:  *clusterHistory,
			GossipTimeout: *gossipTimeout,
			Fanout:        *gossipFanout,
			OriginGCAfter: *originGC,
		}
	}

	if err := serve(opt, logger, *addr, *binAddr, *debugAddr, *restore); err != nil {
		fmt.Fprintln(os.Stderr, "wmserve:", err)
		os.Exit(1)
	}
}

// checkFlags refuses the flag combinations wmserve must not run with,
// before any listener is bound.
func checkFlags(addr, binAddr, authToken, peers, nodeID string) error {
	// The binary handshake carries no credentials (SERVING.md), so a
	// token-protected server would take unauthenticated writes on it.
	if binAddr != "" && authToken != "" {
		return errors.New("-bin-addr cannot be combined with -auth-token: the binary protocol does not authenticate")
	}
	// A host-less -addr like ":8080" would default every node in the fleet
	// to the same id ("http://:8080"), making each drop the others' frames
	// as its own origin — refuse to guess.
	if peers != "" && nodeID == "" {
		if host, _, err := net.SplitHostPort(addr); err != nil || host == "" {
			return fmt.Errorf("-peers requires -node-id when -addr (%q) has no host part", addr)
		}
	}
	return nil
}

// buildLogger assembles the process logger: text or JSON lines on stderr at
// the requested level, wrapped so every record logged under a traced
// request context carries its trace_id/span_id attributes.
func buildLogger(jsonLines bool, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("-log-level %q (want debug, info, warn, or error)", level)
	}
	ho := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	if jsonLines {
		h = slog.NewJSONHandler(os.Stderr, ho)
	} else {
		h = slog.NewTextHandler(os.Stderr, ho)
	}
	return slog.New(trace.NewLogHandler(h)), nil
}

func serve(opt server.Options, logger *slog.Logger, addr, binAddr, debugAddr string, restore bool) error {
	var bln net.Listener
	if binAddr != "" {
		var err error
		if bln, err = net.Listen("tcp", binAddr); err != nil {
			return fmt.Errorf("bin listener: %w", err)
		}
		defer bln.Close()
	}
	srv, err := boot(opt, logger, restore, bln)
	if err != nil {
		return err
	}
	if debugAddr != "" {
		ds, err := startDebugServer(srv, logger, debugAddr)
		if err != nil {
			return err
		}
		defer ds.Close()
	}

	hs := &http.Server{Addr: addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", slog.String("backend", opt.Backend), slog.String("addr", addr))
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	// Final flush: Close drains the binary connections, then checkpoints to
	// opt.CheckpointPath when configured.
	if err := srv.Close(); err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	if opt.CheckpointPath != "" {
		logger.Info("flushed final checkpoint", slog.String("path", opt.CheckpointPath))
	}
	return nil
}

// boot builds the server, restores the checkpoint when asked, and only then
// serves the binary listener bln (nil when -bin-addr is empty). Restore
// swaps in the checkpoint's backend and closes the old one, so an update
// served before it would be acknowledged and then lost.
func boot(opt server.Options, logger *slog.Logger, restore bool, bln net.Listener) (*server.Server, error) {
	srv, err := server.New(opt)
	if err != nil {
		return nil, err
	}
	if restore && opt.CheckpointPath != "" {
		if _, err := os.Stat(opt.CheckpointPath); err == nil {
			if err := srv.Restore(opt.CheckpointPath); err != nil {
				return nil, fmt.Errorf("restore %s: %w", opt.CheckpointPath, err)
			}
			logger.Info("restored checkpoint", slog.String("path", opt.CheckpointPath))
		}
	}
	if bln != nil {
		go func() {
			if err := srv.ServeBin(bln); err != nil {
				logger.Error("binary listener failed", slog.String("error", err.Error()))
			}
		}()
		logger.Info("binary protocol listening", slog.String("addr", bln.Addr().String()))
	}
	return srv, nil
}
