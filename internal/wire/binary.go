package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/obs"
)

// Binary is the persistent-connection transport: one multiplexed TCP
// connection per peer address, length-prefixed binary frames, and
// out-of-order completion by correlation ID. A connection that dies
// mid-flight fails its pending calls with a retryable unavailable
// error and is replaced on the next call — redial policy stays with
// the existing retry machinery (gateway alternate-endpoint dispatch,
// client retry loop) rather than being duplicated here.
type Binary struct {
	m *wireMetrics
	// dial opens a connection to a peer; tests swap it to stall one.
	dial func(ctx context.Context, addr string) (net.Conn, error)

	mu     sync.Mutex
	conns  map[string]*mconn
	dials  map[string]*dialCall
	closed bool
}

// dialCall is one dial in flight to an address. Callers that find it
// wait on done instead of dialing the same peer again.
type dialCall struct {
	done chan struct{}
	mc   *mconn
	err  error
}

// NewBinary builds the binary transport. reg may be nil to run
// without wire metrics.
func NewBinary(reg *obs.Registry) *Binary {
	var d net.Dialer
	return &Binary{
		m: newWireMetrics(reg),
		dial: func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		},
		conns: make(map[string]*mconn),
		dials: make(map[string]*dialCall),
	}
}

// Name implements Transport.
func (t *Binary) Name() string { return TransportBinary }

// Close severs every connection; pending calls fail unavailable.
func (t *Binary) Close() error {
	t.mu.Lock()
	t.closed = true
	conns := t.conns
	t.conns = map[string]*mconn{}
	t.mu.Unlock()
	for _, mc := range conns {
		mc.kill(errors.New("wire: transport closed"))
	}
	return nil
}

// RoundTrip implements Transport.
func (t *Binary) RoundTrip(ctx context.Context, addr, path string, in, out any) error {
	ft, payload, err := encodeRequest(path, in)
	if err != nil {
		return err
	}
	mc, err := t.conn(ctx, addr)
	if err != nil {
		PutBuf(payload)
		return err
	}
	rt, rp, err := mc.roundTrip(ctx, ft, payload)
	if err != nil {
		return err
	}
	defer PutBuf(rp)
	return decodeWireResponse(addr, rt, rp, out)
}

// conn returns the live connection to addr, dialing a new one when
// there is none or it died. The dial runs outside the transport lock
// under the caller's ctx, so a peer that stalls its dial holds up
// only its own callers. At most one dial per address is in flight:
// later callers wait for it, and redial themselves only if it failed
// because its dialer gave up while they still want the peer.
func (t *Binary) conn(ctx context.Context, addr string) (*mconn, error) {
	for {
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return nil, errTransportClosed()
		}
		if mc, ok := t.conns[addr]; ok && mc.alive() {
			t.mu.Unlock()
			return mc, nil
		}
		if d, ok := t.dials[addr]; ok {
			t.mu.Unlock()
			select {
			case <-d.done:
			case <-ctx.Done():
				return nil, dialCtxErr(addr, ctx.Err())
			}
			if d.err == nil {
				return d.mc, nil
			}
			if !errors.Is(d.err, context.Canceled) && !errors.Is(d.err, context.DeadlineExceeded) {
				return nil, d.err
			}
			continue // the dialer's ctx ended, not ours: dial again
		}
		d := &dialCall{done: make(chan struct{})}
		t.dials[addr] = d
		t.mu.Unlock()
		d.mc, d.err = t.dialConn(ctx, addr)
		close(d.done)
		return d.mc, d.err
	}
}

// dialConn dials addr and registers the connection. A refused or
// failed dial is an upstream failure (502), exactly what the httpjson
// carrier reports for a peer it cannot reach.
func (t *Binary) dialConn(ctx context.Context, addr string) (*mconn, error) {
	c, err := t.dial(ctx, addr)
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.dials, addr)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, dialCtxErr(addr, cerr)
		}
		return nil, cberr.Wrap(cberr.CodeUpstream, cberr.LayerGateway,
			fmt.Errorf("wire: dial %s: %w", addr, err))
	}
	if t.closed {
		c.Close()
		return nil, errTransportClosed()
	}
	mc := newMconn(addr, c, t.m)
	t.conns[addr] = mc
	return mc, nil
}

func errTransportClosed() error {
	return cberr.New(cberr.CodeUnavailable, cberr.LayerGateway, "wire: transport closed")
}

func dialCtxErr(addr string, err error) error {
	return cberr.From(fmt.Errorf("wire: dial %s: %w", addr, err), cberr.LayerGateway)
}

// inFrame is one received frame: a matched response handed from the
// read loop to a waiter, or a request handed to a handler worker.
type inFrame struct {
	h       Header
	payload []byte
}

// mconn is one multiplexed connection: a combining writer that
// callers write their own frames through, a buffered read loop
// matching responses to waiters by correlation ID, and a pending
// table. kill runs exactly once, closes dead, and every waiter
// observes it.
type mconn struct {
	addr string
	conn net.Conn
	w    *frameWriter
	dead chan struct{}
	m    *wireMetrics

	mu      sync.Mutex
	deadErr error
	seq     uint64
	pending map[uint64]chan inFrame
}

func newMconn(addr string, conn net.Conn, m *wireMetrics) *mconn {
	mc := &mconn{
		addr:    addr,
		conn:    conn,
		w:       &frameWriter{conn: conn, m: m},
		dead:    make(chan struct{}),
		m:       m,
		pending: make(map[uint64]chan inFrame),
	}
	go mc.readLoop()
	return mc
}

func (mc *mconn) readLoop() {
	br := bufio.NewReaderSize(mc.conn, readBufSize)
	for {
		h, payload, err := ReadFrame(br)
		if err != nil {
			mc.kill(fmt.Errorf("wire: %s: %w", mc.addr, err))
			return
		}
		mc.m.countIn(HeaderSize + len(payload))
		mc.mu.Lock()
		ch := mc.pending[h.Corr]
		delete(mc.pending, h.Corr)
		mc.mu.Unlock()
		if ch == nil {
			// Response for a caller that already gave up (canceled).
			PutBuf(payload)
			continue
		}
		ch <- inFrame{h: h, payload: payload} // buffered; sole sender
	}
}

// kill marks the connection dead (first error wins), closes it, and
// releases every waiter via the dead channel.
func (mc *mconn) kill(err error) {
	mc.mu.Lock()
	if mc.deadErr != nil {
		mc.mu.Unlock()
		return
	}
	mc.deadErr = err
	mc.pending = make(map[uint64]chan inFrame)
	mc.mu.Unlock()
	close(mc.dead)
	mc.conn.Close()
}

// alive reports whether the connection can still carry calls.
func (mc *mconn) alive() bool {
	select {
	case <-mc.dead:
		return false
	default:
		return true
	}
}

func (mc *mconn) connErr() error {
	mc.mu.Lock()
	err := mc.deadErr
	mc.mu.Unlock()
	if err == nil {
		err = errors.New("wire: connection closed")
	}
	return cberr.Wrap(cberr.CodeUnavailable, cberr.LayerGateway, err)
}

func (mc *mconn) forget(corr uint64) {
	mc.mu.Lock()
	delete(mc.pending, corr)
	mc.mu.Unlock()
}

// roundTrip sends one request frame and waits for its correlated
// response. payload is pooled and ownership passes to the writer; the
// returned payload is pooled and owned by the caller.
func (mc *mconn) roundTrip(ctx context.Context, ft Type, payload []byte) (Type, []byte, error) {
	mc.mu.Lock()
	if mc.deadErr != nil {
		mc.mu.Unlock()
		PutBuf(payload)
		return 0, nil, mc.connErr()
	}
	mc.seq++
	corr := mc.seq
	respCh := make(chan inFrame, 1)
	mc.pending[corr] = respCh
	mc.mu.Unlock()

	if err := mc.w.send(ft, corr, payload); err != nil {
		mc.kill(fmt.Errorf("wire: %s: write: %w", mc.addr, err))
		return 0, nil, mc.connErr()
	}

	select {
	case in := <-respCh:
		return in.h.Type, in.payload, nil
	case <-mc.dead:
		mc.forget(corr)
		return 0, nil, mc.connErr()
	case <-ctx.Done():
		mc.forget(corr)
		return 0, nil, cberr.From(fmt.Errorf("wire: %s: %w", mc.addr, ctx.Err()), cberr.LayerGateway)
	}
}

// encodeRequest maps a (path, request) pair onto a frame. The query
// suffix (e.g. the obs scrape's ?format=json) is irrelevant to binary
// framing and stripped.
func encodeRequest(path string, in any) (Type, []byte, error) {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	buf := GetBuf(0)
	switch path {
	case api.GuestV1Invoke:
		if req, ok := in.(*api.GuestInvokeRequest); ok {
			return TInvokeReq, AppendGuestInvoke(buf, req), nil
		}
	case api.PathV1Invoke:
		switch v := in.(type) {
		case *api.TenantedInvoke:
			return TFrontInvokeReq, AppendFrontInvoke(buf, v), nil
		case *api.InvokeRequest:
			return TFrontInvokeReq, AppendFrontInvoke(buf, &api.TenantedInvoke{Req: *v}), nil
		}
	case api.GuestV1Attest, api.PathV1Attest:
		if req, ok := in.(*api.AttestRequest); ok {
			return TAttestReq, AppendAttest(buf, "", req), nil
		}
		if ti, ok := in.(*api.TenantedAttest); ok {
			return TAttestReq, AppendAttest(buf, ti.Tenant, &ti.Req), nil
		}
	case api.PathV1Health, api.GuestV1Health:
		if in == nil {
			return THealthReq, buf, nil
		}
	case api.GuestV1Obs, api.PathV1Obs:
		if in == nil {
			return TObsReq, buf, nil
		}
	}
	PutBuf(buf)
	return 0, nil, cberr.Newf(cberr.CodeInvalid, cberr.LayerGateway,
		"wire: no binary mapping for %T at %s", in, path)
}

// decodeWireResponse decodes a response frame into out. TError frames
// reconstruct the peer's classified error regardless of out.
func decodeWireResponse(addr string, t Type, payload []byte, out any) error {
	if t == TError {
		werr, derr := DecodeError(payload)
		if derr != nil {
			return cberr.Wrap(cberr.CodeUpstream, cberr.LayerGateway, errString(addr, derr))
		}
		return errString(addr, werr)
	}
	switch o := out.(type) {
	case nil:
		return nil
	case *api.InvokeResponse:
		if t != TInvokeResp {
			return typeMismatch(addr, t, TInvokeResp)
		}
		resp, err := DecodeInvokeResponse(payload)
		if err != nil {
			return cberr.Wrap(cberr.CodeUpstream, cberr.LayerGateway, errString(addr, err))
		}
		*o = resp
		return nil
	case *api.AttestResponse:
		if t != TAttestResp {
			return typeMismatch(addr, t, TAttestResp)
		}
		resp, err := DecodeAttestResp(payload)
		if err != nil {
			return cberr.Wrap(cberr.CodeUpstream, cberr.LayerGateway, errString(addr, err))
		}
		*o = resp
		return nil
	default:
		// Obs snapshots (and any other structured response) ride as
		// JSON payloads, exactly what the HTTP surface serves.
		if t != TObsResp {
			return typeMismatch(addr, t, TObsResp)
		}
		if err := json.Unmarshal(payload, out); err != nil {
			return cberr.Wrap(cberr.CodeUpstream, cberr.LayerGateway, errString(addr, err))
		}
		return nil
	}
}

func typeMismatch(addr string, got, want Type) error {
	return cberr.Wrap(cberr.CodeUpstream, cberr.LayerGateway,
		fmt.Errorf("wire: peer %s: frame type %s, want %s", addr, got, want))
}
