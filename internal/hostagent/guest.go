// Package hostagent implements ConfBench's host-side daemon: the
// TEE-enabled machine that launches the secure/normal VM pair, runs a
// guest agent inside each VM, and steers incoming gateway traffic to
// the right VM through socat-style port relays (§III-A: hosts "receive
// requests from the gateway, and, based on the query arguments (i.e.,
// destination port), they will route them to the appropriate
// destination").
package hostagent

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/faultplane"
	"confbench/internal/obs"
	"confbench/internal/vm"
	"confbench/internal/wire"
)

// GuestServer is the agent running inside one VM: a small HTTP server
// executing invoke and attest requests against the VM.
type GuestServer struct {
	vm       *vm.VM
	server   *http.Server
	listener net.Listener
	addr     string

	faults *faultplane.Plane
	host   string

	reg      *obs.Registry
	requests *obs.Counter
	errs     *obs.Counter
	latency  *obs.Histogram
}

// GuestServerConfig assembles a guest agent.
type GuestServerConfig struct {
	// VM is the machine the agent executes against (required).
	VM *vm.VM
	// Obs is the metrics registry (nil = the process-wide default).
	Obs *obs.Registry
	// Faults is the fault plane evaluated at hostagent.exec (nil =
	// fault-free).
	Faults *faultplane.Plane
	// Host labels the agent's host for fault-spec matching.
	Host string
}

// NewGuestServer starts the guest agent on a localhost ephemeral port,
// reporting its request metrics to cfg.Obs.
func NewGuestServer(cfg GuestServerConfig) (*GuestServer, error) {
	machine := cfg.VM
	if machine == nil {
		return nil, errors.New("hostagent: nil vm")
	}
	r := obs.OrDefault(cfg.Obs)
	g := &GuestServer{
		vm:       machine,
		faults:   cfg.Faults,
		host:     cfg.Host,
		reg:      r,
		requests: r.Counter("confbench_hostagent_requests_total", "vm", machine.Name()),
		errs:     r.Counter("confbench_hostagent_errors_total", "vm", machine.Name()),
		latency:  r.Histogram("confbench_hostagent_request_seconds", "vm", machine.Name()),
	}
	// The guest surface is served only under /guest/v1.
	mux := http.NewServeMux()
	mux.HandleFunc(api.GuestV1Invoke, g.handleInvoke)
	mux.HandleFunc(api.GuestV1Attest, g.handleAttest)
	mux.HandleFunc(api.GuestV1Health, func(w http.ResponseWriter, _ *http.Request) {
		api.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "vm": g.vm.Name()})
	})
	mux.HandleFunc(api.GuestV1Obs, g.handleObs)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("hostagent: guest listen: %w", err)
	}
	g.listener = ln
	g.addr = ln.Addr().String()
	// Both carriers share the port: the sniffer peeks each
	// connection's first bytes and routes wire frames to the binary
	// serving loop, everything else to the HTTP mux.
	serveLn := wire.NewSniffer(ln, wire.ServerConfig{
		Handler: g.handleWire,
		Faults:  cfg.Faults,
		Target: faultplane.Target{
			TEE: string(machine.Platform()), Host: cfg.Host, VM: machine.Name(),
		},
		Obs: r,
	})
	g.server = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		_ = g.server.Serve(serveLn) // returns ErrServerClosed on shutdown
	}()
	return g, nil
}

// Addr returns the guest agent's listen address.
func (g *GuestServer) Addr() string { return g.addr }

// handleObs serves the host process's metrics registry so the
// gateway's federation scraper can pull it over the relay hop:
// Prometheus text by default, the JSON snapshot via ?format=json.
// Deliberately not counted in the request metrics — scraping must not
// move what it measures.
func (g *GuestServer) handleObs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	if r.URL.Query().Get("format") == "json" {
		api.WriteJSON(w, http.StatusOK, g.reg.Snapshot())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = g.reg.WritePrometheus(w)
}

// VM returns the wrapped VM.
func (g *GuestServer) VM() *vm.VM { return g.vm }

// execInvoke runs one guest invocation — metrics, fault injection,
// tracing, VM execution — independent of the carrier. A crash/drop
// fault returns wire.ErrSever: the HTTP handler converts it to an
// aborted connection, the wire serving loop to a severed one, so a
// dying guest looks identical under both transports.
func (g *GuestServer) execInvoke(ctx context.Context, req *api.GuestInvokeRequest) (api.InvokeResponse, error) {
	g.requests.Inc()
	start := time.Now()
	// When the caller wants a trace, this side of the network hop
	// starts its own root (the gateway's clock is not ours); the tree
	// rides back in the response for the gateway to graft.
	var root *obs.Span
	if req.Trace {
		ctx, root = obs.NewRoot(ctx, "hostagent", "invoke "+g.vm.Name())
	}
	if d := g.faults.Evaluate(faultplane.PointHostExec, faultplane.Target{
		TEE: string(g.vm.Platform()), Host: g.host, VM: g.vm.Name(),
	}); d.Inject {
		if root != nil {
			root.SetAttr("faultplane", string(d.Kind))
		}
		switch d.Kind {
		case faultplane.KindLatency, faultplane.KindSlowIO:
			time.Sleep(d.Latency)
		case faultplane.KindError:
			g.errs.Inc()
			if root != nil {
				root.End()
			}
			return api.InvokeResponse{}, d.Err
		default: // crash / drop: the agent dies mid-request — the
			// gateway sees a severed connection, not an error reply.
			g.errs.Inc()
			return api.InvokeResponse{}, wire.ErrSever
		}
	}
	res, err := g.vm.InvokeFunction(ctx, req.Function, req.Scale)
	g.latency.Observe(time.Since(start))
	if err != nil {
		g.errs.Inc()
		return api.InvokeResponse{}, cberr.From(err, cberr.LayerHost)
	}
	resp := api.InvokeResponse{
		Output:      res.Output,
		WallNs:      res.Wall.Nanoseconds(),
		BootstrapNs: res.Bootstrap.Nanoseconds(),
		Perf:        res.Perf,
		Secure:      res.Secure,
		Platform:    res.Platform,
		VM:          g.vm.Name(),
	}
	if root != nil {
		root.End()
		resp.Trace = root.Data()
	}
	return resp, nil
}

// execAttest runs one attestation round trip, carrier-independent.
func (g *GuestServer) execAttest(ctx context.Context, req *api.AttestRequest) (api.AttestResponse, error) {
	start := time.Now()
	evidence, err := g.vm.AttestationReport(ctx, req.Nonce)
	if err != nil {
		return api.AttestResponse{}, cberr.From(err, cberr.LayerHost)
	}
	return api.AttestResponse{
		Evidence: evidence,
		AttestNs: time.Since(start).Nanoseconds(),
	}, nil
}

func (g *GuestServer) handleInvoke(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req api.GuestInvokeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		g.errs.Inc()
		api.WriteError(w, http.StatusBadRequest,
			cberr.Wrap(cberr.CodeInvalid, cberr.LayerHost, fmt.Errorf("decode request: %w", err)))
		return
	}
	resp, err := g.execInvoke(r.Context(), &req)
	if err != nil {
		if errors.Is(err, wire.ErrSever) {
			panic(http.ErrAbortHandler)
		}
		api.WriteError(w, cberr.HTTPStatus(err), err)
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

func (g *GuestServer) handleAttest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req api.AttestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		api.WriteError(w, http.StatusBadRequest,
			cberr.Wrap(cberr.CodeInvalid, cberr.LayerHost, fmt.Errorf("decode request: %w", err)))
		return
	}
	resp, err := g.execAttest(r.Context(), &req)
	if err != nil {
		api.WriteError(w, cberr.HTTPStatus(err), err)
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// handleWire serves the binary protocol against the same execution
// paths the HTTP handlers use. Request payloads arrive pooled and are
// decoded (copied) before any execution; responses are built into
// pooled buffers owned by the serving loop.
func (g *GuestServer) handleWire(ctx context.Context, t wire.Type, payload []byte) (wire.Type, []byte, error) {
	switch t {
	case wire.TInvokeReq:
		req, err := wire.DecodeGuestInvoke(payload)
		if err != nil {
			g.errs.Inc()
			return 0, nil, cberr.Wrap(cberr.CodeInvalid, cberr.LayerHost,
				fmt.Errorf("decode request: %w", err))
		}
		resp, err := g.execInvoke(ctx, &req)
		if err != nil {
			return 0, nil, err
		}
		out, err := wire.AppendInvokeResponse(wire.GetBuf(0), &resp)
		if err != nil {
			return 0, nil, cberr.Wrap(cberr.CodeInternal, cberr.LayerHost, err)
		}
		return wire.TInvokeResp, out, nil
	case wire.TAttestReq:
		_, req, err := wire.DecodeAttest(payload)
		if err != nil {
			return 0, nil, cberr.Wrap(cberr.CodeInvalid, cberr.LayerHost,
				fmt.Errorf("decode request: %w", err))
		}
		resp, err := g.execAttest(ctx, &req)
		if err != nil {
			return 0, nil, err
		}
		return wire.TAttestResp, wire.AppendAttestResp(wire.GetBuf(0), &resp), nil
	case wire.THealthReq:
		return wire.THealthResp, wire.AppendHealthResp(wire.GetBuf(0), g.vm.Name()), nil
	case wire.TObsReq:
		blob, err := json.Marshal(g.reg.Snapshot())
		if err != nil {
			return 0, nil, cberr.Wrap(cberr.CodeInternal, cberr.LayerHost, err)
		}
		return wire.TObsResp, append(wire.GetBuf(0), blob...), nil
	default:
		return 0, nil, cberr.Newf(cberr.CodeInvalid, cberr.LayerHost,
			"hostagent: unexpected frame type %s", t)
	}
}

// Close shuts the guest agent down (the VM itself is owned by the
// host agent).
func (g *GuestServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return g.server.Shutdown(ctx)
}
