// Package door is ConfBench's public front door: the one REST-plus-wire
// surface that both the single gateway and the sharded front tier
// serve. It owns the /v1 route table, the error envelope and error
// count, per-route instrumentation on both carriers, wire-frame
// dispatch, the /v1/obs family, and the listen → protocol sniffer →
// HTTP server → shutdown lifecycle. A backend hands it only what
// differs: a table of funcs in Backend, where nil means "not served".
package door

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/faas"
	"confbench/internal/faultplane"
	"confbench/internal/obs"
	"confbench/internal/slo"
	"confbench/internal/wire"
)

// DefaultObsWindow is the sample window (scrape count) /v1/obs/cluster
// rate queries default to.
const DefaultObsWindow = 60

// promContentType is the Prometheus text exposition content type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// Backend is everything a door serves that differs between the
// gateway and the front tier. A nil func leaves its route unserved:
// 404 over HTTP, an unexpected-frame error over the wire.
type Backend struct {
	// Name prefixes door-level error messages ("gateway", "fronttier").
	Name string
	// Layer classifies door-level errors: undecodable requests, wrong
	// methods, malformed query parameters.
	Layer cberr.Layer
	// Obs receives the route metrics and the wire carrier's metrics,
	// and is the registry GET /v1/obs serves.
	Obs *obs.Registry
	// Faults evaluates the wire.frame point per received binary frame
	// (nil = fault-free).
	Faults *faultplane.Plane
	// CountRoutes records confbench_http_request_seconds{route} and
	// confbench_http_requests_total{route,status} for every route
	// except the /v1/obs family, on both carriers. Reading metrics must
	// never move them.
	CountRoutes bool
	// Health is the GET /v1/health body; HealthDetail is the detail
	// string of the wire health frame.
	Health       map[string]string
	HealthDetail string

	Invoke    func(ctx context.Context, tenant string, req api.InvokeRequest) (api.InvokeResponse, error)
	Attest    func(ctx context.Context, tenant string, req api.AttestRequest) (api.AttestResponse, error)
	Upload    func(ctx context.Context, fn faas.Function) error
	Functions func(ctx context.Context) ([]string, error)
	Pools     func(ctx context.Context) []api.PoolInfo
	// Metrics reports the backend's request accounting; the door fills
	// in the uptime and its own error count.
	Metrics func() api.Metrics
	// ScrapeOnce runs one federation sweep for GET /v1/obs/cluster;
	// Series holds the windowed invoke rate it reports.
	ScrapeOnce func(ctx context.Context, at time.Time) obs.ClusterSnapshot
	Series     *obs.SeriesSet
	// SLO serves /v1/obs/slo and /v1/obs/alerts (nil = empty lists).
	SLO *slo.Engine

	// Drain serves POST /v1/drain and Events GET /v1/obs/events (the
	// gateway's).
	Drain  func(ctx context.Context, host string) (*api.DrainReport, error)
	Events func(obs.EventFilter) []obs.Event

	// Submit serves POST /v1/invoke/async and Result GET
	// /v1/invoke/{id} (the front tier's). Result parks up to wait for
	// a pending invoke.
	Submit func(tenant string, req api.InvokeRequest) (api.AsyncSubmitResponse, error)
	Result func(ctx context.Context, id string, wait time.Duration) (api.AsyncResult, error)
}

// Door is one running (or startable) front door over a Backend.
type Door struct {
	b   Backend
	mux *http.ServeMux

	// Pre-resolved route metrics for the wire carrier's routes (nil
	// when uncounted); the HTTP handlers capture theirs at mount time.
	invokeM, attestM, healthM *routeMetrics

	errors atomic.Uint64

	mu      sync.Mutex
	server  *http.Server
	baseURL string
	started time.Time
}

// New builds a door over b and mounts its route table under /v1.
func New(b Backend) *Door {
	d := &Door{b: b, mux: http.NewServeMux()}
	for _, rt := range []struct {
		path   string
		method string // "" = the handler dispatches on method itself
		serve  http.HandlerFunc
		on     bool // the backend serves it
		obs    bool // the obs family: never counted
	}{
		{api.PathFunctions, "", d.functions, b.Functions != nil, false},
		{api.PathInvoke, http.MethodPost, d.invoke, b.Invoke != nil, false},
		{api.PathInvokeAsync, http.MethodPost, d.submit, b.Submit != nil, false},
		{api.PathInvoke + "/{id}", http.MethodGet, d.result, b.Result != nil, false},
		{api.PathAttest, http.MethodPost, d.attest, b.Attest != nil, false},
		{api.PathPools, http.MethodGet, d.pools, b.Pools != nil, false},
		{api.PathDrain, http.MethodPost, d.drain, b.Drain != nil, false},
		{api.PathMetrics, http.MethodGet, d.metrics, b.Metrics != nil, false},
		{api.PathHealth, http.MethodGet, d.health, true, false},
		{api.PathObs, http.MethodGet, d.obs, true, true},
		{api.PathObsCluster, http.MethodGet, d.obsCluster, b.ScrapeOnce != nil, true},
		{api.PathObsEvents, http.MethodGet, d.obsEvents, b.Events != nil, true},
		{api.PathObsSLO, http.MethodGet, d.obsSLO, true, true},
		{api.PathObsAlerts, http.MethodGet, d.obsAlerts, true, true},
	} {
		if !rt.on {
			continue
		}
		route := api.APIPrefixV1 + rt.path
		h := rt.serve
		if rt.method != "" {
			h = d.only(rt.method, h)
		}
		if b.CountRoutes && !rt.obs {
			m := newRouteMetrics(b.Obs, route)
			switch rt.path {
			case api.PathInvoke:
				d.invokeM = m
			case api.PathAttest:
				d.attestM = m
			case api.PathHealth:
				d.healthM = m
			}
			h = m.wrap(h)
		}
		d.mux.Handle(route, h)
	}
	return d
}

// Start listens on addr ("127.0.0.1:0" for ephemeral) and serves both
// carriers on the one port: a sniffer peeks each connection's first
// bytes and routes wire frames to the binary loop, HTTP to the route
// table. It returns the base URL.
func (d *Door) Start(addr string) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.server != nil {
		return "", fmt.Errorf("%s: already started", d.b.Name)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("%s: listen %s: %w", d.b.Name, addr, err)
	}
	// Shutting the HTTP server down closes the sniffer, which closes
	// the raw listener and every live wire connection.
	sniffer := wire.NewSniffer(ln, wire.ServerConfig{
		Handler: d.handleWire,
		Faults:  d.b.Faults,
		Obs:     d.b.Obs,
	})
	srv := &http.Server{Handler: d.mux, ReadHeaderTimeout: 5 * time.Second}
	d.server = srv
	d.started = time.Now()
	d.baseURL = "http://" + ln.Addr().String()
	go func() {
		_ = srv.Serve(sniffer) // ErrServerClosed on shutdown
	}()
	return d.baseURL, nil
}

// BaseURL returns the served URL (empty before Start).
func (d *Door) BaseURL() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.baseURL
}

// Close shuts the server down, waiting up to 3 s for in-flight
// requests. Closing a door that is not serving is a no-op.
func (d *Door) Close() error {
	d.mu.Lock()
	srv := d.server
	d.server = nil
	d.mu.Unlock()
	if srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// CountError bumps the error count /v1/metrics reports, for failures
// the backend observes off the request path (async completions).
func (d *Door) CountError() { d.errors.Add(1) }

// routeMetrics is one counted route's pre-resolved latency histogram
// and success counter. Error statuses are rare and fall back to the
// registry lookup.
type routeMetrics struct {
	reg     *obs.Registry
	route   string
	latency *obs.Histogram
	ok      *obs.Counter
}

func newRouteMetrics(reg *obs.Registry, route string) *routeMetrics {
	return &routeMetrics{
		reg:     reg,
		route:   route,
		latency: reg.Histogram("confbench_http_request_seconds", "route", route),
		ok: reg.Counter("confbench_http_requests_total",
			"route", route, "status", strconv.Itoa(http.StatusOK)),
	}
}

// observe records one request that started at start and ended with
// status. A nil receiver is an uncounted route.
func (m *routeMetrics) observe(start time.Time, status int) {
	if m == nil {
		return
	}
	m.latency.Observe(time.Since(start))
	if status == http.StatusOK {
		m.ok.Inc()
		return
	}
	m.reg.Counter("confbench_http_requests_total",
		"route", m.route, "status", strconv.Itoa(status)).Inc()
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (m *routeMetrics) wrap(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next(sw, r)
		m.observe(start, sw.status)
	}
}

// handleWire serves the binary carrier against the same backend funcs
// the HTTP routes drive. The tenant rides in the frame payload (binary
// frames have no headers).
func (d *Door) handleWire(ctx context.Context, t wire.Type, payload []byte) (wire.Type, []byte, error) {
	start := time.Now()
	switch {
	case t == wire.TFrontInvokeReq && d.b.Invoke != nil:
		ti, err := wire.DecodeFrontInvoke(payload)
		if err != nil {
			return d.wireFail(d.invokeM, start, d.decodeErr(err))
		}
		resp, err := d.b.Invoke(ctx, tenantOr(ti.Tenant), ti.Req)
		if err != nil {
			return d.wireFail(d.invokeM, start, err)
		}
		d.invokeM.observe(start, http.StatusOK)
		out, err := wire.AppendInvokeResponse(wire.GetBuf(0), &resp)
		if err != nil {
			return 0, nil, cberr.Wrap(cberr.CodeInternal, d.b.Layer, err)
		}
		return wire.TInvokeResp, out, nil
	case t == wire.TAttestReq && d.b.Attest != nil:
		tenant, req, err := wire.DecodeAttest(payload)
		if err != nil {
			return d.wireFail(d.attestM, start, d.decodeErr(err))
		}
		resp, err := d.b.Attest(ctx, tenantOr(tenant), req)
		if err != nil {
			return d.wireFail(d.attestM, start, err)
		}
		d.attestM.observe(start, http.StatusOK)
		return wire.TAttestResp, wire.AppendAttestResp(wire.GetBuf(0), &resp), nil
	case t == wire.THealthReq:
		d.healthM.observe(start, http.StatusOK)
		return wire.THealthResp, wire.AppendHealthResp(wire.GetBuf(0), d.b.HealthDetail), nil
	case t == wire.TObsReq:
		blob, err := json.Marshal(d.b.Obs.Snapshot())
		if err != nil {
			return 0, nil, cberr.Wrap(cberr.CodeInternal, d.b.Layer, err)
		}
		return wire.TObsResp, append(wire.GetBuf(0), blob...), nil
	}
	return 0, nil, cberr.Newf(cberr.CodeInvalid, d.b.Layer,
		"%s: unexpected frame type %s", d.b.Name, t)
}

// wireFail counts one failed wire request and returns its error frame.
func (d *Door) wireFail(m *routeMetrics, start time.Time, err error) (wire.Type, []byte, error) {
	d.errors.Add(1)
	m.observe(start, cberr.HTTPStatus(err))
	return 0, nil, err
}

func tenantOr(tenant string) string {
	if tenant == "" {
		return api.TenantDefault
	}
	return tenant
}

// tenantOf reads an HTTP request's tenant identity.
func tenantOf(r *http.Request) string {
	return tenantOr(r.Header.Get(api.HeaderTenant))
}

// countError bumps the error count and writes the envelope.
func (d *Door) countError(w http.ResponseWriter, status int, err error) {
	d.errors.Add(1)
	api.WriteError(w, status, err)
}

// fail writes a classified error, deriving the status from its code.
func (d *Door) fail(w http.ResponseWriter, err error) {
	d.countError(w, cberr.HTTPStatus(err), err)
}

func (d *Door) invalid(w http.ResponseWriter, status int, msg string) {
	d.countError(w, status, cberr.New(cberr.CodeInvalid, d.b.Layer, msg))
}

func (d *Door) decodeErr(err error) error {
	return cberr.Wrap(cberr.CodeInvalid, d.b.Layer, fmt.Errorf("decode request: %w", err))
}

// decode reads a JSON request body into v, answering 400 on failure.
func (d *Door) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		d.fail(w, d.decodeErr(err))
		return false
	}
	return true
}

// only rejects every method but method with a 405 envelope.
func (d *Door) only(method string, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			d.invalid(w, http.StatusMethodNotAllowed, method+" required")
			return
		}
		next(w, r)
	}
}

func (d *Door) functions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req api.UploadRequest
		if !d.decode(w, r, &req) {
			return
		}
		if err := d.b.Upload(r.Context(), req.Function); err != nil {
			d.fail(w, err)
			return
		}
		api.WriteJSON(w, http.StatusOK, map[string]string{"registered": req.Function.Name})
	case http.MethodGet:
		names, err := d.b.Functions(r.Context())
		if err != nil {
			d.fail(w, err)
			return
		}
		api.WriteJSON(w, http.StatusOK, names)
	default:
		d.invalid(w, http.StatusMethodNotAllowed, "GET or POST required")
	}
}

func (d *Door) invoke(w http.ResponseWriter, r *http.Request) {
	var req api.InvokeRequest
	if !d.decode(w, r, &req) {
		return
	}
	resp, err := d.b.Invoke(r.Context(), tenantOf(r), req)
	if err != nil {
		d.fail(w, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

// submit answers an async submission with 202 and the invoke ID.
func (d *Door) submit(w http.ResponseWriter, r *http.Request) {
	var req api.InvokeRequest
	if !d.decode(w, r, &req) {
		return
	}
	sub, err := d.b.Submit(tenantOf(r), req)
	if err != nil {
		d.fail(w, err)
		return
	}
	api.WriteJSON(w, http.StatusAccepted, sub)
}

// result serves one async invoke's record. An optional ?wait=<dur>
// long-polls: the backend parks until the invoke completes or the
// wait elapses, and a still-pending record answers 204 — poll again —
// so completion costs one round trip, not a sleep loop.
func (d *Door) result(w http.ResponseWriter, r *http.Request) {
	var wait time.Duration
	if v := r.URL.Query().Get("wait"); v != "" {
		dur, err := time.ParseDuration(v)
		if err != nil || dur < 0 {
			d.invalid(w, http.StatusBadRequest, "wait must be a non-negative Go duration")
			return
		}
		wait = dur
	}
	res, err := d.b.Result(r.Context(), r.PathValue("id"), wait)
	if err != nil {
		d.fail(w, err)
		return
	}
	if wait > 0 && res.Status == api.AsyncPending {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	api.WriteJSON(w, http.StatusOK, res)
}

func (d *Door) attest(w http.ResponseWriter, r *http.Request) {
	var req api.AttestRequest
	if !d.decode(w, r, &req) {
		return
	}
	resp, err := d.b.Attest(r.Context(), tenantOf(r), req)
	if err != nil {
		d.fail(w, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, resp)
}

func (d *Door) pools(w http.ResponseWriter, r *http.Request) {
	api.WriteJSON(w, http.StatusOK, d.b.Pools(r.Context()))
}

func (d *Door) drain(w http.ResponseWriter, r *http.Request) {
	var req api.DrainRequest
	if !d.decode(w, r, &req) {
		return
	}
	report, err := d.b.Drain(r.Context(), req.Host)
	if err != nil {
		d.fail(w, err)
		return
	}
	api.WriteJSON(w, http.StatusOK, report)
}

func (d *Door) metrics(w http.ResponseWriter, _ *http.Request) {
	m := d.b.Metrics()
	d.mu.Lock()
	m.UptimeSeconds = time.Since(d.started).Seconds()
	d.mu.Unlock()
	m.Errors = d.errors.Load()
	api.WriteJSON(w, http.StatusOK, m)
}

func (d *Door) health(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, d.b.Health)
}

// wantJSON reports whether a GET asked for JSON over Prometheus text.
func wantJSON(r *http.Request) bool {
	return r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json")
}

// obs serves the backend's own registry: Prometheus text by default,
// JSON via ?format=json or Accept.
func (d *Door) obs(w http.ResponseWriter, r *http.Request) {
	if wantJSON(r) {
		api.WriteJSON(w, http.StatusOK, d.b.Obs.Snapshot())
		return
	}
	w.Header().Set("Content-Type", promContentType)
	_ = d.b.Obs.WritePrometheus(w)
}

// obsCluster serves the federated cluster view: a fresh sweep merged
// under host (or shard) labels, with the windowed invoke rate.
// ?window=N overrides the rate window (samples).
func (d *Door) obsCluster(w http.ResponseWriter, r *http.Request) {
	window := DefaultObsWindow
	if v := r.URL.Query().Get("window"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			d.invalid(w, http.StatusBadRequest, "window must be a non-negative integer")
			return
		}
		window = n
	}
	cs := d.b.ScrapeOnce(r.Context(), time.Now())
	cs.Window = window
	if s := d.b.Series.Get(obs.RateInvokesPerSec); s != nil {
		cs.Rates = map[string]float64{obs.RateInvokesPerSec: s.Rate(window)}
	}
	if wantJSON(r) {
		api.WriteJSON(w, http.StatusOK, cs)
		return
	}
	w.Header().Set("Content-Type", promContentType)
	_ = obs.WriteSnapshotPrometheus(w, cs.Merged)
}

// obsEvents serves the flight recorder's retained invoke events
// (oldest first), filtered by ?limit= (newest N), ?err=1 (failures
// only), and ?trace=inv-N (exact trace match).
func (d *Door) obsEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := obs.EventFilter{Trace: q.Get("trace"), ErrOnly: q.Get("err") == "1"}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			d.invalid(w, http.StatusBadRequest, "limit must be a non-negative integer")
			return
		}
		f.Limit = n
	}
	evs := d.b.Events(f)
	if evs == nil {
		evs = []obs.Event{}
	}
	api.WriteJSON(w, http.StatusOK, evs)
}

// obsSLO serves the per-objective status: state, two-window burn
// rates, and remaining error budget.
func (d *Door) obsSLO(w http.ResponseWriter, _ *http.Request) {
	sts := d.b.SLO.Status()
	if sts == nil {
		sts = []slo.Status{}
	}
	api.WriteJSON(w, http.StatusOK, sts)
}

// obsAlerts serves the alert timeline: every SLO state transition so
// far, oldest first.
func (d *Door) obsAlerts(w http.ResponseWriter, _ *http.Request) {
	trs := d.b.SLO.Timeline()
	if trs == nil {
		trs = []slo.Transition{}
	}
	api.WriteJSON(w, http.StatusOK, trs)
}
