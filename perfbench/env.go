package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wmsketch/internal/server"
	"wmsketch/internal/wire"
)

// node is one booted server with its listeners and the benchmark's client
// connections to it. Every listener is bound to 127.0.0.1:0.
type node struct {
	srv     *server.Server
	hs      *http.Server
	base    string // client HTTP listener
	binAddr string
	binLn   net.Listener
	tr      *http.Transport
	hc      *http.Client
	bins    []*wire.Client

	// gossipBytes counts every byte read or written on the connections
	// accepted by the node's gossip listener (cluster mode only); peers
	// reach the node there and nowhere else.
	gossipBytes atomic.Int64

	wg        sync.WaitGroup // serve loops
	closeOnce sync.Once
}

// nodeSpec configures one node to boot.
type nodeSpec struct {
	opt  server.Options
	ckpt string // restored at boot when non-empty
	bins int    // binary client connections to open
}

// boot starts one server per spec and returns once every listener has
// answered a ping. With clustered set the nodes form a full mesh whose
// gossip runs only when the benchmark calls GossipOnce.
func boot(specs []nodeSpec, clustered bool) (nodes []*node, err error) {
	var lns []net.Listener
	newLn := func() (net.Listener, error) {
		ln, err := listen()
		if err == nil {
			lns = append(lns, ln)
		}
		return ln, err
	}
	defer func() {
		if err != nil {
			closeAll(nodes)
			for _, ln := range lns {
				_ = ln.Close() // a listener a node already closed errors harmlessly
			}
			nodes = nil
		}
	}()
	type nodeLns struct{ http, bin, gossip net.Listener }
	all := make([]nodeLns, len(specs))
	gossipURLs := make([]string, len(specs))
	for i := range specs {
		if all[i].http, err = newLn(); err != nil {
			return nil, err
		}
		if all[i].bin, err = newLn(); err != nil {
			return nil, err
		}
		if clustered {
			if all[i].gossip, err = newLn(); err != nil {
				return nil, err
			}
			gossipURLs[i] = "http://" + all[i].gossip.Addr().String()
		}
	}
	for i, spec := range specs {
		opt := spec.opt
		if clustered {
			opt.Cluster = server.ClusterOptions{
				Self:     gossipURLs[i],
				Peers:    others(gossipURLs, i),
				Interval: -1, // rounds run only when the benchmark drives them
			}
		}
		srv, err := server.New(opt)
		if err != nil {
			return nodes, fmt.Errorf("node %d: %w", i, err)
		}
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
		n := &node{
			srv:     srv,
			hs:      &http.Server{Handler: srv},
			base:    "http://" + all[i].http.Addr().String(),
			binAddr: all[i].bin.Addr().String(),
			binLn:   all[i].bin,
			tr:      tr,
			hc:      &http.Client{Transport: tr, Timeout: 60 * time.Second},
		}
		nodes = append(nodes, n)
		n.serve(all[i].http)
		if all[i].gossip != nil {
			n.serve(countListener{all[i].gossip, &n.gossipBytes})
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			_ = srv.ServeBin(n.binLn)
		}()
		if spec.ckpt != "" {
			if err := srv.Restore(spec.ckpt); err != nil {
				return nodes, fmt.Errorf("node %d restore: %w", i, err)
			}
		}
	}
	for i, n := range nodes {
		if err := n.ping(specs[i].bins); err != nil {
			return nodes, fmt.Errorf("node %d: %w", i, err)
		}
		if clustered {
			if _, err := n.get(gossipURLs[i] + "/healthz"); err != nil {
				return nodes, fmt.Errorf("node %d gossip listener: %w", i, err)
			}
		}
	}
	for _, n := range nodes {
		n.gossipBytes.Store(0) // the pings above are not gossip
	}
	return nodes, nil
}

func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func others(urls []string, self int) []string {
	out := make([]string, 0, len(urls)-1)
	for i, u := range urls {
		if i != self {
			out = append(out, u)
		}
	}
	return out
}

func (n *node) serve(ln net.Listener) {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		_ = n.hs.Serve(ln)
	}()
}

// ping checks the HTTP listener and opens the binary connections, each
// answering one ping.
func (n *node) ping(bins int) error {
	if _, err := n.get(n.base + "/healthz"); err != nil {
		return fmt.Errorf("http ping: %w", err)
	}
	for len(n.bins) < bins {
		cl, err := wire.Dial(n.binAddr, 10*time.Second)
		if err != nil {
			return fmt.Errorf("binary dial: %w", err)
		}
		n.bins = append(n.bins, cl)
		if err := cl.Ping(); err != nil {
			return fmt.Errorf("binary ping: %w", err)
		}
	}
	return nil
}

// close tears the node down and waits for its serve loops to return. It
// is idempotent.
func (n *node) close() {
	n.closeOnce.Do(func() {
		for _, cl := range n.bins {
			_ = cl.Close()
		}
		_ = n.binLn.Close()
		_ = n.hs.Close()
		_ = n.srv.Close()
		n.tr.CloseIdleConnections()
		n.wg.Wait()
	})
}

func closeAll(nodes []*node) {
	for _, n := range nodes {
		n.close()
	}
}

func (n *node) get(url string) ([]byte, error) {
	return n.do(http.MethodGet, url, nil)
}

func (n *node) post(path string, body []byte) ([]byte, error) {
	return n.do(http.MethodPost, n.base+path, body)
}

func (n *node) do(method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := n.hc.Do(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("HTTP %d from %s %s: %s", resp.StatusCode, method, url, bytes.TrimSpace(out))
	}
	return out, nil
}

// countListener wraps a listener so every accepted connection adds the
// bytes it reads and writes to n.
type countListener struct {
	net.Listener
	n *atomic.Int64
}

func (l countListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countConn{c, l.n}, nil
}

type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c countConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.Add(int64(k))
	return k, err
}

func (c countConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.Add(int64(k))
	return k, err
}

// pipeListener hands out the server ends of in-memory net.Pipe
// connections, so the binary server can be measured without a socket.
type pipeListener struct {
	conns  chan net.Conn
	closed chan struct{}
	once   sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), closed: make(chan struct{})}
}

// dial returns the client end of a new pipe whose server end the next
// Accept returns.
func (l *pipeListener) dial() (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.closed:
		c.Close()
		s.Close()
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.closed:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.closed) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }
