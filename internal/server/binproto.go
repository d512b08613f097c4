package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"wmsketch/internal/stream"
	"wmsketch/internal/wire"
)

// Binary hot protocol listener ("wmwire", SERVING.md "Binary protocol").
// The HTTP/JSON API is the compatibility surface; this path exists for the
// hot endpoints only — update, predict, estimate — where JSON encode/decode
// dominates the request cost. The differential conformance suite
// (conformance_test.go) pins this path to the JSON path: same validation,
// same error classes, bit-identical model state for the same requests.
//
// Connection model: every connection is pipelined. The read loop pulls
// frames and dispatches each to its own goroutine (bounded by
// BinOptions.MaxInFlight), so responses may complete out of order; the
// write loop serializes response frames back and coalesces flushes while
// more responses are queued. Request tags pair responses with requests —
// the server echoes them verbatim and never interprets them.

// BinOptions shapes per-connection behavior of the binary listener.
type BinOptions struct {
	// IdleTimeout closes a connection when no frame arrives for this long
	// (dead or silent clients must not pin server state forever, the same
	// reasoning as the cluster's -gossip-timeout). 0 selects 5 minutes;
	// negative disables.
	IdleTimeout time.Duration
	// WriteTimeout bounds one flush of queued responses; a client that
	// stops reading is disconnected rather than allowed to wedge the
	// writer. 0 selects 30 seconds; negative disables.
	WriteTimeout time.Duration
	// MaxInFlight bounds concurrently-executing requests per connection;
	// the read loop stops pulling frames at the bound, so TCP backpressure
	// reaches the client. 0 selects 128.
	MaxInFlight int
}

func (o BinOptions) fill() BinOptions {
	if o.IdleTimeout == 0 {
		o.IdleTimeout = 5 * time.Minute
	}
	if o.WriteTimeout == 0 {
		o.WriteTimeout = 30 * time.Second
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 128
	}
	return o
}

// binOpNames lists the binary dispatch table, in op order. Tests enumerate
// it the way TestMiddlewareCountsEveryRoute enumerates RoutePatterns, so
// an op can never be added without instrumentation.
var binOpNames = []string{
	wire.OpName(wire.OpUpdate),
	wire.OpName(wire.OpPredict),
	wire.OpName(wire.OpEstimate),
	wire.OpName(wire.OpPing),
}

// BinOpNames returns the binary dispatch table's op labels.
func (s *Server) BinOpNames() []string {
	out := make([]string, len(binOpNames))
	copy(out, binOpNames)
	return out
}

// binSpanName returns the span/metric route label for an op, the binary
// analog of an HTTP route pattern.
func binSpanName(op byte) string { return "bin/" + wire.OpName(op) }

// binBuf is a pooled frame buffer: request payloads on the way in,
// encoded response payloads on the way out.
type binBuf struct{ b []byte }

var binBufPool = sync.Pool{New: func() interface{} { return new(binBuf) }}

// Scratch pools for the synchronous (non-retaining) decode paths. Update
// batches are NOT pooled: sharded backends consume them asynchronously, so
// each update frame decodes into fresh memory (still only two allocations
// per frame — the example slice and one flat feature backing array).
var (
	binNNZPool = sync.Pool{New: func() interface{} { s := make([]int, 0, 256); return &s }}
	binVecPool = sync.Pool{New: func() interface{} { v := make(stream.Vector, 0, 256); return &v }}
	binIdxPool = sync.Pool{New: func() interface{} { s := make([]uint32, 0, 256); return &s }}
	binWtPool  = sync.Pool{New: func() interface{} { s := make([]float64, 0, 256); return &s }}
)

// errBinAuth refuses the binary listener on a server with an auth token.
var errBinAuth = errors.New("server: the binary protocol does not authenticate, so a server with an auth token does not serve it")

// ServeBin accepts binary-protocol connections on ln until the listener
// closes. Run it in its own goroutine next to the HTTP listener; a closed
// listener returns nil (the graceful-shutdown path), any other accept
// error is returned. Close closes ln and drains its connections.
//
// A server with Options.AuthToken set closes ln without accepting and
// returns an error: the handshake carries no credentials, so every
// connection could write without the token.
func (s *Server) ServeBin(ln net.Listener) error {
	if s.opt.AuthToken != "" {
		_ = ln.Close()
		return errBinAuth
	}
	stop := context.AfterFunc(s.stop, func() { _ = ln.Close() })
	defer stop()
	opt := s.opt.Bin.fill()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !s.track() {
			_ = conn.Close() // accepted as Close began
			continue
		}
		go func() {
			defer s.running.Done()
			s.serveBinConn(conn, opt)
		}()
	}
}

// track counts one more goroutine for Close to wait for, unless Close has
// begun, in which case it reports false and counts nothing.
func (s *Server) track() bool {
	s.runningMu.Lock()
	defer s.runningMu.Unlock()
	if s.stop.Err() != nil {
		return false
	}
	s.running.Add(1)
	return true
}

// binConn is one pipelined connection's shared state.
type binConn struct {
	srv  *Server
	conn net.Conn
	opt  BinOptions
	ctx  context.Context

	out chan binResponse // handler goroutines → write loop

	// done closes when the connection is fatally broken (write timeout,
	// frame-level violation); handlers select on it so they can never
	// block on a dead write loop.
	done     chan struct{}
	doneOnce sync.Once

	sem chan struct{}  // bounds in-flight requests
	wg  sync.WaitGroup // in-flight handler goroutines
}

// binResponse is one encoded response awaiting the write loop. buf owns
// the payload bytes and returns to the pool after the write.
type binResponse struct {
	status byte
	tag    uint32
	buf    *binBuf
}

func (c *binConn) fail() {
	c.doneOnce.Do(func() {
		close(c.done)
		_ = c.conn.Close()
	})
}

func (c *binConn) logAttrs() []slog.Attr {
	return []slog.Attr{slog.String("proto", "bin"), slog.String("remote", c.conn.RemoteAddr().String())}
}

// serveBinConn owns one connection: handshake, read loop, teardown. It
// returns only when every in-flight handler has finished and the write
// loop has exited, so an abrupt disconnect can never leak goroutines.
func (s *Server) serveBinConn(conn net.Conn, opt BinOptions) {
	m := &s.met.bin
	m.connsTotal.Inc()
	m.connsOpen.Inc()
	defer m.connsOpen.Dec()

	c := &binConn{
		srv:  s,
		conn: conn,
		opt:  opt,
		ctx:  context.Background(),
		out:  make(chan binResponse, opt.MaxInFlight),
		done: make(chan struct{}),
		sem:  make(chan struct{}, opt.MaxInFlight),
	}
	defer c.fail() // idempotent close
	// Close stops the connection by moving its read deadline into the
	// past. Every deadline this goroutine sets is followed by a look at
	// s.stop, so none can undo Close's unnoticed.
	stop := context.AfterFunc(s.stop, func() { _ = conn.SetReadDeadline(time.Unix(1, 0)) })
	defer stop()

	// Handshake, under the idle deadline: a connection that never sends
	// its preamble is torn down like any other dead client.
	if opt.IdleTimeout > 0 {
		_ = conn.SetDeadline(time.Now().Add(opt.IdleTimeout))
	}
	if s.stop.Err() != nil {
		return
	}
	if err := wire.ReadHandshake(conn); err != nil {
		m.connErrors.Inc()
		s.logger.LogAttrs(c.ctx, slog.LevelWarn, "bin handshake failed",
			append(c.logAttrs(), slog.String("error", err.Error()))...)
		return
	}
	if err := wire.WriteHandshake(conn); err != nil {
		m.connErrors.Inc()
		return
	}
	_ = conn.SetDeadline(time.Time{})

	writerDone := make(chan struct{})
	go c.writeLoop(writerDone)

	br := bufio.NewReaderSize(conn, 64<<10)
	c.readLoop(br)

	// Teardown: wait for handlers (each either queued its response or saw
	// done), close the response stream, wait for the writer to drain it.
	c.wg.Wait()
	close(c.out)
	<-writerDone
	c.fail()
}

// readLoop pulls frames and dispatches handlers until the connection
// breaks, the peer closes, or the idle deadline fires.
func (c *binConn) readLoop(br *bufio.Reader) {
	m := &c.srv.met.bin
	pb := binBufPool.Get().(*binBuf)
	defer func() { binBufPool.Put(pb) }()
	for {
		if c.opt.IdleTimeout > 0 {
			_ = c.conn.SetReadDeadline(time.Now().Add(c.opt.IdleTimeout))
		}
		if c.srv.stop.Err() != nil {
			return // Close: answer what was read, read nothing more
		}
		req, grown, err := wire.ReadRequestFrame(br, pb.b)
		pb.b = grown
		if err != nil {
			if !errors.Is(err, io.EOF) && c.srv.stop.Err() == nil {
				m.connErrors.Inc()
				c.srv.logger.LogAttrs(c.ctx, slog.LevelWarn, "bin connection failed",
					append(c.logAttrs(), slog.String("error", err.Error()))...)
			}
			return
		}
		m.bytesIn.Add(int64(wire.FrameWireSize(len(req.Payload))))

		// Backpressure: stop pulling frames at MaxInFlight. done can only
		// fire here via a write-loop failure, in which case reading more
		// requests is pointless.
		select {
		case c.sem <- struct{}{}:
		case <-c.done:
			return
		}
		c.wg.Add(1)
		// The handler takes ownership of the payload buffer; the read
		// loop continues on a fresh pooled one.
		owned := pb
		pb = binBufPool.Get().(*binBuf)
		go c.handle(req.Op, req.Tag, owned)
	}
}

// handle decodes, executes, and queues the response for one request. It
// runs on its own goroutine so slow requests never head-of-line block the
// connection; the tag pairs the response with its request.
func (c *binConn) handle(op byte, tag uint32, pb *binBuf) {
	s := c.srv
	m := &s.met.bin
	defer func() {
		c.wg.Done()
		<-c.sem
	}()
	m.inFlight.Inc()
	began := time.Now()
	ctx, span := s.tracer.StartSpan(c.ctx, binSpanName(op))
	if hook := s.binHook; hook != nil {
		hook(op)
	}
	rb := binBufPool.Get().(*binBuf)
	status, payload := c.dispatch(ctx, op, pb.Payload(), rb.b[:0])
	rb.b = payload
	binBufPool.Put(pb)
	if status == wire.StatusError {
		span.SetError()
	}
	span.Finish()
	elapsed := time.Since(began)
	oi := m.op(op)
	oi.dur.ObserveDuration(elapsed)
	oi.status(status).Inc()
	m.inFlight.Dec()
	if status != wire.StatusOK && s.logger.Enabled(ctx, slog.LevelDebug) {
		s.logger.LogAttrs(ctx, slog.LevelDebug, "bin request rejected",
			append(c.logAttrs(), slog.String("op", wire.OpName(op)), slog.Int("status", int(status)))...)
	}
	select {
	case c.out <- binResponse{status: status, tag: tag, buf: rb}:
	case <-c.done:
		binBufPool.Put(rb)
	}
}

// Payload returns the buffer's current contents (the frame payload the
// read loop left in it).
func (b *binBuf) Payload() []byte { return b.b }

// dispatch executes one decoded request against the backend and encodes
// the response payload into dst. Decode failures are the client's fault
// (StatusBadRequest, the JSON path's 400); backend failures would be
// StatusError, but the current ops cannot fail server-side.
func (c *binConn) dispatch(ctx context.Context, op byte, payload, dst []byte) (byte, []byte) {
	s := c.srv
	switch op {
	case wire.OpUpdate:
		nnzp := binNNZPool.Get().(*[]int)
		batch, nnz, err := wire.DecodeUpdateRequest(payload, *nnzp)
		*nnzp = nnz[:0]
		binNNZPool.Put(nnzp)
		if err != nil {
			return wire.StatusBadRequest, wire.AppendErrorResponse(dst, err.Error())
		}
		steps := s.applyBatch(ctx, batch)
		return wire.StatusOK, wire.AppendUpdateResponse(dst, len(batch), steps)

	case wire.OpPredict:
		vp := binVecPool.Get().(*stream.Vector)
		x, err := wire.DecodePredictRequest(payload, *vp)
		if err != nil {
			*vp = x[:0]
			binVecPool.Put(vp)
			return wire.StatusBadRequest, wire.AppendErrorResponse(dst, err.Error())
		}
		margin := s.predict(ctx, x)
		*vp = x[:0]
		binVecPool.Put(vp)
		label := -1
		if margin > 0 {
			label = 1
		}
		s.met.predicts.Inc()
		return wire.StatusOK, wire.AppendPredictResponse(dst, margin, label)

	case wire.OpEstimate:
		ip := binIdxPool.Get().(*[]uint32)
		indices, err := wire.DecodeEstimateRequest(payload, *ip)
		if err != nil {
			*ip = indices[:0]
			binIdxPool.Put(ip)
			return wire.StatusBadRequest, wire.AppendErrorResponse(dst, err.Error())
		}
		wp := binWtPool.Get().(*[]float64)
		weights := (*wp)[:0]
		for _, idx := range indices {
			weights = append(weights, s.estimate(idx))
		}
		s.met.estimates.Add(int64(len(weights)))
		dst = wire.AppendEstimateResponse(dst, weights)
		*wp = weights[:0]
		binWtPool.Put(wp)
		*ip = indices[:0]
		binIdxPool.Put(ip)
		return wire.StatusOK, dst

	case wire.OpPing:
		return wire.StatusOK, dst

	default:
		// Unreachable: ReadRequestFrame validated the op. Kept as a
		// defensive response rather than a panic.
		return wire.StatusBadRequest, wire.AppendErrorResponse(dst, fmt.Sprintf("unknown op %d", op))
	}
}

// writeLoop serializes queued responses onto the connection, coalescing
// flushes: it writes while responses are queued and flushes once the
// queue momentarily drains, so a pipelined burst costs one syscall, not
// one per response. A write or flush failure (including the write
// deadline on a client that stopped reading) fails the connection.
func (c *binConn) writeLoop(writerDone chan struct{}) {
	defer close(writerDone)
	m := &c.srv.met.bin
	bw := bufio.NewWriterSize(c.conn, 64<<10)
	broken := false
	writeOne := func(r binResponse) {
		if !broken {
			// Arm the deadline before the write, not only before the flush:
			// an oversized payload auto-flushes inside bufio, and must not
			// do so under a stale deadline from a previous flush.
			if c.opt.WriteTimeout > 0 {
				_ = c.conn.SetWriteDeadline(time.Now().Add(c.opt.WriteTimeout))
			}
			n, err := wire.WriteFrame(bw, r.status, r.tag, r.buf.b)
			m.bytesOut.Add(int64(n))
			if err != nil {
				broken = true
				m.connErrors.Inc()
				c.fail()
			}
		}
		r.buf.b = r.buf.b[:0]
		binBufPool.Put(r.buf)
	}
	flush := func() {
		if broken {
			return
		}
		if c.opt.WriteTimeout > 0 {
			_ = c.conn.SetWriteDeadline(time.Now().Add(c.opt.WriteTimeout))
		}
		if err := bw.Flush(); err != nil {
			broken = true
			m.connErrors.Inc()
			c.fail()
		}
	}
	for r := range c.out {
		writeOne(r)
	drain:
		for {
			select {
			case next, ok := <-c.out:
				if !ok {
					flush()
					return
				}
				writeOne(next)
			default:
				break drain
			}
		}
		flush()
	}
	flush()
}
