package door

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"confbench/internal/api"
	"confbench/internal/cberr"
	"confbench/internal/faas"
	"confbench/internal/obs"
	"confbench/internal/tee"
	"confbench/internal/wire"
)

// fakeBackend serves every route with canned answers; "ghost",
// "bogus", "dup", "" and "missing" select the error paths.
func fakeBackend(name string, layer cberr.Layer, counted bool) Backend {
	notFound := func(what string) error {
		return cberr.Newf(cberr.CodeNotFound, layer, "%s: no %s", name, what)
	}
	b := Backend{
		Name:         name,
		Layer:        layer,
		Obs:          obs.New(),
		CountRoutes:  counted,
		Health:       map[string]string{"status": "ok"},
		HealthDetail: "ok",
		Invoke: func(_ context.Context, tenant string, req api.InvokeRequest) (api.InvokeResponse, error) {
			if req.Function == "ghost" {
				return api.InvokeResponse{}, notFound("function")
			}
			return api.InvokeResponse{Output: req.Function + " for " + tenant}, nil
		},
		Attest: func(_ context.Context, _ string, req api.AttestRequest) (api.AttestResponse, error) {
			if req.TEE == "bogus" {
				return api.AttestResponse{}, notFound("pool")
			}
			return api.AttestResponse{Evidence: []byte("ev")}, nil
		},
		Upload: func(_ context.Context, fn faas.Function) error {
			if fn.Name == "dup" {
				return cberr.New(cberr.CodeConflict, layer, "exists")
			}
			return nil
		},
		Functions: func(context.Context) ([]string, error) { return []string{"fn"}, nil },
		Pools: func(context.Context) []api.PoolInfo {
			return []api.PoolInfo{{TEE: tee.KindTDX, Endpoints: 1}}
		},
		Metrics: func() api.Metrics { return api.Metrics{Invocations: 7} },
		ScrapeOnce: func(context.Context, time.Time) obs.ClusterSnapshot {
			return obs.ClusterSnapshot{Hosts: []string{"h"}}
		},
		Series: obs.NewSeriesSet(obs.DefaultSeriesCapacity),
	}
	if counted {
		b.Drain = func(_ context.Context, host string) (*api.DrainReport, error) {
			if host == "" {
				return nil, cberr.New(cberr.CodeInvalid, layer, "host required")
			}
			return &api.DrainReport{Host: host}, nil
		}
		b.Events = func(obs.EventFilter) []obs.Event { return nil }
	} else {
		b.Submit = func(string, api.InvokeRequest) (api.AsyncSubmitResponse, error) {
			return api.AsyncSubmitResponse{ID: "async-1", Status: api.AsyncPending}, nil
		}
		b.Result = func(_ context.Context, id string, wait time.Duration) (api.AsyncResult, error) {
			if id == "missing" {
				return api.AsyncResult{}, notFound("result")
			}
			if wait > 0 {
				return api.AsyncResult{ID: id, Status: api.AsyncPending}, nil
			}
			return api.AsyncResult{ID: id, Status: api.AsyncDone}, nil
		}
	}
	return b
}

func startDoor(t *testing.T, b Backend) (*Door, string) {
	t.Helper()
	d := New(b)
	url, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d, url
}

// requestCounts snapshots every confbench_http_requests_total series.
func requestCounts(reg *obs.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for id, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(id, "confbench_http_requests_total") {
			out[id] = v
		}
	}
	return out
}

// moved lists the series whose count changed, with the delta.
func moved(before, after map[string]uint64) map[string]uint64 {
	out := map[string]uint64{}
	for id, v := range after {
		if d := v - before[id]; d != 0 {
			out[id] = d
		}
	}
	return out
}

type httpCase struct {
	name   string
	method string
	path   string
	body   string
	status int
	// counted is the route label a counting door records the request
	// under ("" = never counted: the obs family, unserved paths).
	counted string
}

// sharedCases are the routes both the gateway and the tier serve.
var sharedCases = []httpCase{
	{"upload", http.MethodPost, api.PathV1Functions, `{"function":{"name":"f"}}`, 200, api.PathV1Functions},
	{"upload conflict", http.MethodPost, api.PathV1Functions, `{"function":{"name":"dup"}}`, 409, api.PathV1Functions},
	{"upload undecodable", http.MethodPost, api.PathV1Functions, `{"function":`, 400, api.PathV1Functions},
	{"list functions", http.MethodGet, api.PathV1Functions, "", 200, api.PathV1Functions},
	{"functions wrong method", http.MethodDelete, api.PathV1Functions, "", 405, api.PathV1Functions},
	{"invoke", http.MethodPost, api.PathV1Invoke, `{"function":"fn"}`, 200, api.PathV1Invoke},
	{"invoke not found", http.MethodPost, api.PathV1Invoke, `{"function":"ghost"}`, 404, api.PathV1Invoke},
	{"invoke undecodable", http.MethodPost, api.PathV1Invoke, `{"function":`, 400, api.PathV1Invoke},
	{"invoke wrong method", http.MethodGet, api.PathV1Invoke, "", 405, api.PathV1Invoke},
	{"attest", http.MethodPost, api.PathV1Attest, `{"tee":"tdx"}`, 200, api.PathV1Attest},
	{"attest not found", http.MethodPost, api.PathV1Attest, `{"tee":"bogus"}`, 404, api.PathV1Attest},
	{"pools", http.MethodGet, api.PathV1Pools, "", 200, api.PathV1Pools},
	{"metrics", http.MethodGet, api.PathV1Metrics, "", 200, api.PathV1Metrics},
	{"health", http.MethodGet, api.PathV1Health, "", 200, api.PathV1Health},
	{"health wrong method", http.MethodPost, api.PathV1Health, "{}", 405, api.PathV1Health},
	{"obs", http.MethodGet, api.PathV1Obs, "", 200, ""},
	{"obs json", http.MethodGet, api.PathV1Obs + "?format=json", "", 200, ""},
	{"obs wrong method", http.MethodPost, api.PathV1Obs, "{}", 405, ""},
	{"obs cluster", http.MethodGet, api.PathV1ObsCluster + "?format=json&window=5", "", 200, ""},
	{"obs cluster text", http.MethodGet, api.PathV1ObsCluster, "", 200, ""},
	{"obs cluster bad window", http.MethodGet, api.PathV1ObsCluster + "?window=-1", "", 400, ""},
	{"obs slo", http.MethodGet, api.PathV1ObsSLO, "", 200, ""},
	{"obs alerts", http.MethodGet, api.PathV1ObsAlerts, "", 200, ""},
	{"bare path", http.MethodGet, api.PathHealth, "", 404, ""},
	{"bare invoke", http.MethodPost, api.PathInvoke, `{"function":"fn"}`, 404, ""},
}

// gatewayCases are served only by a backend with Drain and Events.
var gatewayCases = []httpCase{
	{"drain", http.MethodPost, api.PathV1Drain, `{"host":"h1"}`, 200, api.PathV1Drain},
	{"drain invalid", http.MethodPost, api.PathV1Drain, `{}`, 400, api.PathV1Drain},
	{"drain wrong method", http.MethodGet, api.PathV1Drain, "", 405, api.PathV1Drain},
	{"obs events", http.MethodGet, api.PathV1ObsEvents + "?limit=3&err=1", "", 200, ""},
	{"obs events bad limit", http.MethodGet, api.PathV1ObsEvents + "?limit=x", "", 400, ""},
	{"async not served", http.MethodPost, api.PathV1InvokeAsync, `{"function":"fn"}`, 404, ""},
	{"result not served", http.MethodGet, api.PathV1Invoke + "/async-1", "", 404, ""},
}

// tierCases are served only by a backend with Submit and Result.
var tierCases = []httpCase{
	{"submit", http.MethodPost, api.PathV1InvokeAsync, `{"function":"fn"}`, 202, ""},
	{"submit undecodable", http.MethodPost, api.PathV1InvokeAsync, `{`, 400, ""},
	{"result", http.MethodGet, api.PathV1Invoke + "/async-1", "", 200, ""},
	{"result pending", http.MethodGet, api.PathV1Invoke + "/async-1?wait=1s", "", 204, ""},
	{"result bad wait", http.MethodGet, api.PathV1Invoke + "/async-1?wait=-1s", "", 400, ""},
	{"result missing", http.MethodGet, api.PathV1Invoke + "/missing", "", 404, ""},
	{"drain not served", http.MethodPost, api.PathV1Drain, `{"host":"h1"}`, 404, ""},
	{"events not served", http.MethodGet, api.PathV1ObsEvents, "", 404, ""},
}

// TestDoorHTTPRoutes drives every route of a counting (gateway-shaped)
// and a non-counting (tier-shaped) door: status codes, the error
// envelope, and exactly which request counters move.
func TestDoorHTTPRoutes(t *testing.T) {
	for _, door := range []struct {
		name    string
		layer   cberr.Layer
		counted bool
		cases   []httpCase
	}{
		{"gateway", cberr.LayerGateway, true, append(append([]httpCase(nil), sharedCases...), gatewayCases...)},
		{"fronttier", cberr.LayerFront, false, append(append([]httpCase(nil), sharedCases...), tierCases...)},
	} {
		b := fakeBackend(door.name, door.layer, door.counted)
		d, url := startDoor(t, b)
		errorsSeen := uint64(0)
		for _, tc := range door.cases {
			t.Run(door.name+"/"+tc.name, func(t *testing.T) {
				before := requestCounts(b.Obs)
				req, err := http.NewRequest(tc.method, url+tc.path, strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if resp.StatusCode != tc.status {
					t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
				}
				// Every error the door answers (the mux's own 404 aside)
				// carries the classified envelope under the backend's
				// layer or the failing backend func's.
				if tc.status >= 400 && !strings.HasPrefix(tc.name, "bare") && !strings.HasSuffix(tc.name, "not served") {
					var env api.ErrorResponse
					if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
						t.Fatalf("decode envelope: %v", err)
					}
					if env.Error == "" || env.Code != cberr.CodeForHTTPStatus(tc.status) || env.Layer != door.layer {
						t.Fatalf("envelope = %+v", env)
					}
					errorsSeen++
				}
				got := moved(before, requestCounts(b.Obs))
				want := map[string]uint64{}
				if door.counted && tc.counted != "" {
					want[obs.MetricID("confbench_http_requests_total",
						"route", tc.counted, "status", strconv.Itoa(tc.status))] = 1
				}
				if len(got) != len(want) {
					t.Fatalf("counters moved %v, want %v", got, want)
				}
				for id, n := range want {
					if got[id] != n {
						t.Fatalf("counters moved %v, want %v", got, want)
					}
				}
			})
		}
		if got := d.errors.Load(); got != errorsSeen {
			t.Errorf("%s: error count = %d, want %d", door.name, got, errorsSeen)
		}
	}
}

// TestDoorMetricsFillsUptimeAndErrors: the door owns uptime and the
// error count; the backend supplies the rest.
func TestDoorMetricsFillsUptimeAndErrors(t *testing.T) {
	d, url := startDoor(t, fakeBackend("gateway", cberr.LayerGateway, true))
	d.CountError()
	c, err := api.New(url)
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if m.Invocations != 7 || m.Errors != 1 || m.UptimeSeconds <= 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestDoorWireCarrier drives the binary carrier: each frame route
// answers like its HTTP twin and lands on the same counters.
func TestDoorWireCarrier(t *testing.T) {
	for _, counted := range []bool{true, false} {
		b := fakeBackend("gateway", cberr.LayerGateway, counted)
		_, url := startDoor(t, b)
		addr := strings.TrimPrefix(url, "http://")
		tr := wire.NewBinary(nil)
		t.Cleanup(func() { _ = tr.Close() })
		ctx := context.Background()
		for _, tc := range []struct {
			name  string
			path  string
			in    any
			out   any
			code  cberr.Code
			route string
		}{
			{"invoke", api.PathV1Invoke, &api.TenantedInvoke{Req: api.InvokeRequest{Function: "fn"}}, &api.InvokeResponse{}, "", api.PathV1Invoke},
			{"invoke not found", api.PathV1Invoke, &api.TenantedInvoke{Req: api.InvokeRequest{Function: "ghost"}}, &api.InvokeResponse{}, cberr.CodeNotFound, api.PathV1Invoke},
			{"attest", api.PathV1Attest, &api.TenantedAttest{Req: api.AttestRequest{TEE: tee.KindTDX}}, &api.AttestResponse{}, "", api.PathV1Attest},
			{"attest not found", api.PathV1Attest, &api.TenantedAttest{Req: api.AttestRequest{TEE: "bogus"}}, &api.AttestResponse{}, cberr.CodeNotFound, api.PathV1Attest},
			{"health", api.PathV1Health, nil, nil, "", api.PathV1Health},
			{"obs", api.PathV1Obs, nil, &obs.Snapshot{}, "", ""},
		} {
			before := requestCounts(b.Obs)
			err := tr.RoundTrip(ctx, addr, tc.path, tc.in, tc.out)
			if cberr.CodeOf(err) != tc.code && !(tc.code == "" && err == nil) {
				t.Fatalf("counted=%v %s: err = %v, want code %q", counted, tc.name, err, tc.code)
			}
			got := moved(before, requestCounts(b.Obs))
			want := 0
			if counted && tc.route != "" {
				want = 1
				status := 200
				if err != nil {
					status = cberr.HTTPStatus(err)
				}
				id := obs.MetricID("confbench_http_requests_total", "route", tc.route, "status", strconv.Itoa(status))
				if got[id] != 1 {
					t.Fatalf("counted=%v %s: counters moved %v, want %s", counted, tc.name, got, id)
				}
			}
			if len(got) != want {
				t.Fatalf("counted=%v %s: counters moved %v", counted, tc.name, got)
			}
		}
		if resp := (api.InvokeResponse{}); tr.RoundTrip(ctx, addr, api.PathV1Invoke,
			&api.TenantedInvoke{Tenant: "acme", Req: api.InvokeRequest{Function: "fn"}}, &resp) != nil ||
			resp.Output != "fn for acme" {
			t.Fatalf("tenant lost over the wire: %+v", resp)
		}
	}
}

// TestDoorWireRejects covers the frames a door refuses: undecodable
// payloads (counted as errors) and frame types it does not serve.
func TestDoorWireRejects(t *testing.T) {
	b := fakeBackend("fronttier", cberr.LayerFront, true)
	b.Attest = nil
	d := New(b)
	ctx := context.Background()
	if _, _, err := d.handleWire(ctx, wire.TFrontInvokeReq, []byte{0xff}); cberr.CodeOf(err) != cberr.CodeInvalid {
		t.Fatalf("undecodable invoke: %v", err)
	}
	id := obs.MetricID("confbench_http_requests_total", "route", api.PathV1Invoke, "status", "400")
	if got := b.Obs.Snapshot().Counters[id]; got != 1 {
		t.Fatalf("%s = %d, want 1", id, got)
	}
	for _, ft := range []wire.Type{wire.TInvokeReq, wire.TAttestReq} {
		_, _, err := d.handleWire(ctx, ft, nil)
		if cberr.CodeOf(err) != cberr.CodeInvalid || !strings.Contains(err.Error(), "fronttier: unexpected frame type") {
			t.Fatalf("frame %s: %v", ft, err)
		}
	}
	if got := d.errors.Load(); got != 1 {
		t.Fatalf("error count = %d, want 1", got)
	}
}

// TestDoorLifecycle: one start per door, a clean close, and a close of
// a door that never started.
func TestDoorLifecycle(t *testing.T) {
	d := New(fakeBackend("gateway", cberr.LayerGateway, false))
	if err := d.Close(); err != nil {
		t.Fatalf("close before start: %v", err)
	}
	if d.BaseURL() != "" {
		t.Fatal("base URL before start")
	}
	url, err := d.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if d.BaseURL() != url {
		t.Fatalf("BaseURL = %q, want %q", d.BaseURL(), url)
	}
	if _, err := d.Start("127.0.0.1:0"); err == nil || !strings.Contains(err.Error(), "gateway: already started") {
		t.Fatalf("second start: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(fakeBackend("gateway", cberr.LayerGateway, false)).Start("256.0.0.1:0"); err == nil {
		t.Fatal("listen on a bad address succeeded")
	}
}
