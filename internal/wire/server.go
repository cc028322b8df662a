package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"confbench/internal/faultplane"
	"confbench/internal/obs"
)

// wireMetrics caches the per-connection-plane obs instruments so the
// hot path increments pre-resolved counters instead of re-hashing
// label sets per frame.
type wireMetrics struct {
	frames   [TError + 1]*obs.Counter
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
	batch    *obs.Histogram
}

func newWireMetrics(reg *obs.Registry) *wireMetrics {
	if reg == nil {
		return nil
	}
	m := &wireMetrics{
		bytesIn:  reg.Counter("confbench_wire_bytes_total", "dir", "in"),
		bytesOut: reg.Counter("confbench_wire_bytes_total", "dir", "out"),
		batch:    reg.HistogramWith("confbench_wire_batch_size", []float64{1, 2, 4, 8, 16}),
	}
	for t := TInvokeReq; t <= TError; t++ {
		m.frames[t] = reg.Counter("confbench_wire_frames_total", "type", t.String())
	}
	return m
}

func (m *wireMetrics) countIn(n int) {
	if m != nil {
		m.bytesIn.Add(uint64(n))
	}
}

// readBufSize sizes a connection's read buffer: one read syscall
// usually pulls in a frame's header and payload, and every frame that
// arrived with it.
const readBufSize = 32 << 10

// frameWriter is a connection's write side, a combining writer: the
// goroutine with a frame to send appends it to the pending buffer
// under mu and, if no write is in progress, makes the write syscall
// itself outside the lock. Frames queued while that write runs go out
// together in its next write, so frames batch exactly when senders
// overlap and no frame waits on a timer. Frames are counted on the send
// side only, so a frame crossing one hop increments
// confbench_wire_frames_total exactly once per registry.
type frameWriter struct {
	conn net.Conn
	m    *wireMetrics

	mu      sync.Mutex
	pending []byte // frames queued for the next write
	spare   []byte // the previous write's buffer, reused for the next
	n       int    // frames in pending
	writing bool
	err     error // first write error; the connection is closed
}

// send queues one frame and, unless another sender is already
// writing, writes every queued frame before returning. The pooled
// payload passes to send, which recycles it. A nil return means the
// frame was written or handed to the sender whose write is in
// progress; a write error closes the connection, so the read side
// fails whoever waits on an unsent frame.
func (w *frameWriter) send(t Type, corr uint64, payload []byte) error {
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		PutBuf(payload)
		return err
	}
	w.pending = AppendFrame(w.pending, t, corr, payload)
	w.n++
	PutBuf(payload)
	if w.m != nil {
		w.m.frames[t].Inc()
	}
	if w.writing {
		w.mu.Unlock()
		return nil
	}
	w.writing = true
	for w.n > 0 {
		out, n := w.pending, w.n
		w.pending, w.spare, w.n = w.spare[:0], nil, 0
		w.mu.Unlock()
		_, err := w.conn.Write(out)
		if w.m != nil {
			w.m.bytesOut.Add(uint64(len(out)))
			w.m.batch.Observe(time.Duration(n) * time.Second)
		}
		w.mu.Lock()
		if cap(out) <= poolBufCap { // as PutBuf, leave an oversized buffer to the GC
			w.spare = out[:0]
		}
		if err != nil {
			w.err = err
			w.pending, w.n = nil, 0
			break
		}
	}
	w.writing = false
	err := w.err
	w.mu.Unlock()
	if err != nil {
		w.conn.Close()
	}
	return err
}

// Handler processes one decoded request frame and returns the
// response frame type and payload (built into a pooled buffer, e.g.
// AppendInvokeResponse(GetBuf(0), ...)). The request payload is only
// valid for the duration of the call — decode, don't retain. An error
// wrapping ErrSever drops the connection with no response (the wire
// analogue of panic(http.ErrAbortHandler)); any other error is sent to
// the peer as a TError frame carrying its cberr classification.
type Handler func(ctx context.Context, t Type, payload []byte) (Type, []byte, error)

// ServerConfig configures a wire front door.
type ServerConfig struct {
	Handler Handler
	// Faults evaluates the wire.frame point per received frame; nil
	// disables injection.
	Faults *faultplane.Plane
	// Target attributes injected faults (host name for history).
	Target faultplane.Target
	// Obs registers the wire frame/byte/batch metrics; nil disables.
	Obs *obs.Registry
}

// Sniffer wraps a listener and splits incoming connections by
// protocol: a two-byte peek of the wire magic routes the connection to
// the binary serving loop, anything else (an HTTP method line is
// printable ASCII) is replayed to the HTTP server through Accept().
// Sniffer is itself a net.Listener, so http.Server.Serve consumes the
// HTTP side unchanged and Shutdown's listener close tears both down.
type Sniffer struct {
	ln     net.Listener
	cfg    ServerConfig
	m      *wireMetrics
	httpCh chan net.Conn
	done   chan struct{}
	once   sync.Once

	mu        sync.Mutex
	acceptErr error
	conns     map[net.Conn]struct{}
}

// NewSniffer starts sniffing ln. The returned Sniffer must be passed
// to an HTTP server (or have Accept drained) or HTTP connections will
// stall.
func NewSniffer(ln net.Listener, cfg ServerConfig) *Sniffer {
	s := &Sniffer{
		ln:     ln,
		cfg:    cfg,
		m:      newWireMetrics(cfg.Obs),
		httpCh: make(chan net.Conn),
		done:   make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
	go s.acceptLoop()
	return s
}

func (s *Sniffer) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			s.acceptErr = err
			s.mu.Unlock()
			s.once.Do(func() { close(s.done) })
			return
		}
		go s.sniff(conn)
	}
}

// sniff peeks the first two bytes under a deadline so a connected but
// silent peer cannot pin the goroutine forever.
func (s *Sniffer) sniff(conn net.Conn) {
	br := bufio.NewReaderSize(conn, readBufSize)
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	peek, err := br.Peek(2)
	_ = conn.SetReadDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return
	}
	bc := &bufConn{r: br, Conn: conn}
	if peek[0] == Magic0 && peek[1] == Magic1 {
		if !s.track(bc) {
			conn.Close()
			return
		}
		defer s.untrack(bc)
		s.serveWire(bc)
		return
	}
	select {
	case s.httpCh <- bc:
	case <-s.done:
		conn.Close()
	}
}

func (s *Sniffer) track(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.done:
		return false
	default:
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Sniffer) untrack(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Accept implements net.Listener, yielding only HTTP connections.
func (s *Sniffer) Accept() (net.Conn, error) {
	select {
	case c := <-s.httpCh:
		return c, nil
	case <-s.done:
		s.mu.Lock()
		err := s.acceptErr
		s.mu.Unlock()
		if err == nil {
			err = net.ErrClosed
		}
		return nil, err
	}
}

// Close implements net.Listener: stops the accept loop and severs
// every live wire connection so serving goroutines drain.
func (s *Sniffer) Close() error {
	s.once.Do(func() { close(s.done) })
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	return err
}

// Addr implements net.Listener.
func (s *Sniffer) Addr() net.Addr { return s.ln.Addr() }

// serveWire runs the binary serving loop on one connection: read a
// frame, evaluate the wire.frame fault point, and hand the payload to
// an idle handler worker of this connection, starting a new worker
// only when every worker is busy. Responses complete out of order
// through the connection's combining writer, keyed by correlation ID.
// When the read loop ends, the connection is closed, in-flight
// handlers see their context canceled, and every worker has exited
// before serveWire returns.
func (s *Sniffer) serveWire(conn net.Conn) {
	w := &frameWriter{conn: conn, m: s.m}
	ctx, cancel := context.WithCancel(context.Background())
	// Unbuffered: a send completes only by handing the frame to a
	// worker that is free.
	jobs := make(chan inFrame)
	var wg sync.WaitGroup
	// busy counts frames handed to a handler that has not returned.
	// workers never falls below it, so a dispatch always finds a worker
	// that is idle or only finishing its send.
	var busy atomic.Int32
	workers := int32(0)
	defer func() {
		close(jobs)
		cancel()
		conn.Close()
		wg.Wait()
	}()

	worker := func(f inFrame) {
		defer wg.Done()
		for ok := true; ok; f, ok = <-jobs {
			rt, rp, herr := s.cfg.Handler(ctx, f.h.Type, f.payload)
			busy.Add(-1)
			PutBuf(f.payload)
			if herr != nil {
				if errors.Is(herr, ErrSever) {
					PutBuf(rp)
					conn.Close()
					continue
				}
				rt, rp = TError, AppendError(GetBuf(0), herr)
			}
			_ = w.send(rt, f.h.Corr, rp) // a failed write closed conn, ending the read loop
		}
	}

	for {
		h, payload, err := ReadFrame(conn)
		if err != nil {
			return
		}
		s.m.countIn(HeaderSize + len(payload))
		if d := s.cfg.Faults.Evaluate(faultplane.PointWireFrame, s.cfg.Target); d.Inject {
			switch d.Kind {
			case faultplane.KindLatency, faultplane.KindSlowIO:
				time.Sleep(d.Latency)
			case faultplane.KindError:
				PutBuf(payload)
				_ = w.send(TError, h.Corr, AppendError(GetBuf(0), d.Err))
				continue
			default: // drop, crash: sever with no response
				PutBuf(payload)
				return
			}
		}
		f := inFrame{h: h, payload: payload}
		if busy.Add(1) > workers {
			workers++
			wg.Add(1)
			go worker(f)
		} else {
			jobs <- f
		}
	}
}

// bufConn replays bytes buffered during the protocol peek ahead of the
// raw connection.
type bufConn struct {
	r *bufio.Reader
	net.Conn
}

func (c *bufConn) Read(p []byte) (int, error) { return c.r.Read(p) }

var _ net.Listener = (*Sniffer)(nil)

// errString formats a peer address into wire errors consistently.
func errString(addr string, err error) error {
	return fmt.Errorf("wire: peer %s: %w", addr, err)
}
