package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"confbench"
	"confbench/internal/meter"
	"confbench/internal/obs"
	"confbench/internal/tee"
	"confbench/internal/workloads"
)

// slots is the number of requests kept in flight by one load
// process: the core count of the 2-core box the workloads were sized
// on, fixed so that runs on other machines offer the same load.
const slots = 2

// setupRuns is how many times a run boots its deployment; setup_s is
// the median, and the last deployment is measured.
const setupRuns = 21

// benchFunc is one function a serving workload uploads and invokes.
type benchFunc struct {
	fn    confbench.Function
	scale int
	want  string // reference output of the catalog workload at scale
}

func newBenchFunc(cat *workloads.Registry, lang, workload string, scale int) (benchFunc, error) {
	w, err := cat.Lookup(workload)
	if err != nil {
		return benchFunc{}, err
	}
	out, err := w.Run(meter.NewContext(), scale)
	if err != nil {
		return benchFunc{}, fmt.Errorf("reference output %s@%d: %w", workload, scale, err)
	}
	return benchFunc{
		fn:    confbench.Function{Name: workload + "-" + lang, Language: lang, Workload: workload},
		scale: scale,
		want:  out,
	}, nil
}

func (f benchFunc) request(op Op) confbench.InvokeRequest {
	return confbench.InvokeRequest{Function: f.fn.Name, Scale: f.scale, Secure: op.Secure, TEE: op.TEE}
}

// check verifies that a response answers the request it was sent
// for: the reference output, computed on the host of the requested
// TEE, in a VM of the requested kind. A normal VM reports no platform.
func (f benchFunc) check(resp confbench.InvokeResponse, kind tee.Kind, secure bool) error {
	platform := tee.KindNone
	if secure {
		platform = kind
	}
	switch {
	case resp.Output != f.want:
		return fmt.Errorf("%s output %q, want %q", f.fn.Name, resp.Output, f.want)
	case resp.Platform != platform:
		return fmt.Errorf("%s ran on platform %q, want %q", f.fn.Name, resp.Platform, platform)
	case !strings.HasPrefix(resp.Host, string(kind)+"-host"):
		return fmt.Errorf("%s ran on host %q, want a %s host", f.fn.Name, resp.Host, kind)
	case resp.Secure != secure:
		return fmt.Errorf("%s secure=%v, want %v", f.fn.Name, resp.Secure, secure)
	}
	return nil
}

// rig is one booted serving deployment with its functions uploaded.
type rig struct {
	cluster *confbench.Cluster
	funcs   []benchFunc
	clients []*confbench.Client // one per tenant
}

func (r *rig) Close() error { return r.cluster.Close() }

// bootRepeated boots a deployment setupRuns times, closing all but the
// last, and returns it with the median set-up time.
func bootRepeated(ctx context.Context, boot func(context.Context) (*rig, error)) (*rig, float64, error) {
	var samples []float64
	var last *rig
	for k := 0; k < setupRuns; k++ {
		if last != nil {
			if err := last.Close(); err != nil {
				return nil, 0, fmt.Errorf("close deployment: %w", err)
			}
		}
		// Each boot starts from a collected heap, so none of them pays
		// for sweeping the deployments closed before it.
		runtime.GC()
		t0 := time.Now()
		r, err := boot(ctx)
		if err != nil {
			return nil, 0, err
		}
		samples = append(samples, time.Since(t0).Seconds())
		last = r
	}
	return last, median(samples), nil
}

// warmInvokes is the least number of warm-up invokes per boot.
const warmInvokes = 300

// uploadAndWarm uploads funcs, then sends checked warm-up invokes
// through every (client, function, target) triple, repeating until at
// least warmInvokes were sent, so pools, connections and caches are
// filled before anything is timed.
func (r *rig) uploadAndWarm(ctx context.Context) error {
	for _, f := range r.funcs {
		if err := r.cluster.Client().Upload(ctx, f.fn); err != nil {
			return fmt.Errorf("upload %s: %w", f.fn.Name, err)
		}
	}
	for sent := 0; sent < warmInvokes; {
		for _, c := range r.clients {
			for _, f := range r.funcs {
				for _, cb := range combos {
					resp, err := c.Invoke(ctx, f.request(Op{TEE: cb.kind, Secure: cb.secure}))
					if err != nil {
						return fmt.Errorf("warm-up invoke: %w", err)
					}
					if err := f.check(resp, cb.kind, cb.secure); err != nil {
						return fmt.Errorf("warm-up: %w", err)
					}
					sent++
				}
			}
		}
	}
	return nil
}

// reportServing prints and records the end-to-end metrics every
// serving workload shares, from a load loop and the whole-process
// counter growth over it.
func reportServing(res *result, setup float64, lr loopResult, cost procSample) error {
	res.count(lr.Attempted, lr.Failed)
	if lr.Attempted == lr.Failed {
		return errors.New("no op completed")
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	n := float64(lr.Attempted)
	lat := lr.Lat.dist()
	res.set("setup_s", setup, "s", setupRuns)
	// On the open loop this is the achieved rate: below the offered
	// rate only when the system falls behind and the last ops finish
	// late.
	res.set("throughput_ops_s", float64(lr.Attempted-lr.Failed)/lr.Elapsed.Seconds(), "1/s", lr.Attempted)
	res.set("latency_p50_ms", lat.P50, "ms", lat.N)
	note("latency_p99_ms", lat.P99, "ms", lat.N)
	if lat.TailQ != 0.99 {
		note(fmt.Sprintf("latency_p%g_ms", lat.TailQ*100), lat.Tail, "ms", lat.N)
	}
	res.set("cpu_us_per_op", us(cost.CPU)/n, "us", lr.Attempted)
	res.set("alloc_kb_per_op", float64(cost.TotalAlloc)/1024/n, "KiB", lr.Attempted)
	note("allocs_per_op", float64(cost.Mallocs)/n, "count", lr.Attempted)
	note("syscalls_per_op", float64(cost.Syscalls)/n, "count", lr.Attempted)
	res.set("max_rss_mb", rss, "MiB", 1)
	note("fail_ratio", float64(lr.Failed)/n, "ratio", lr.Attempted)
	return nil
}

// measure runs loop between two whole-process counter readings and
// returns the counters' growth over it.
func measure(loop func() loopResult) (loopResult, procSample, error) {
	before, err := readProc()
	if err != nil {
		return loopResult{}, procSample{}, err
	}
	lr := loop()
	after, err := readProc()
	if err != nil {
		return loopResult{}, procSample{}, err
	}
	return lr, after.sub(before), nil
}

// --- invoke-tiny ---------------------------------------------------

// tinyMix is invoke-tiny's traffic: one function, every (TEE, secure)
// target in seeded rotation.
var tinyMix = Mix{Functions: 1, Tenants: 1}

func bootTiny(seed int64) func(context.Context) (*rig, error) {
	return func(ctx context.Context) (*rig, error) {
		c, err := confbench.New(confbench.WithSeed(seed), confbench.WithTransport("binary"))
		if err != nil {
			return nil, fmt.Errorf("boot invoke-tiny deployment: %w", err)
		}
		f, err := newBenchFunc(c.Catalog(), "go", "fib", 5)
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		r := &rig{cluster: c, funcs: []benchFunc{f}, clients: []*confbench.Client{c.Client()}}
		if err := r.uploadAndWarm(ctx); err != nil {
			_ = c.Close()
			return nil, err
		}
		return r, nil
	}
}

// tinyOp sends op i of seq and checks its response.
func tinyOp(r *rig, seq *Sequence) opFunc {
	f, c := r.funcs[0], r.clients[0]
	return func(ctx context.Context, i int64) error {
		op := seq.At(i)
		resp, err := c.Invoke(ctx, f.request(op))
		if err == nil {
			err = f.check(resp, op.TEE, op.Secure)
		}
		if err != nil {
			fmt.Printf("op %d failed: %v\n", i, err)
		}
		return err
	}
}

func runInvokeTiny(ctx context.Context, seed int64, d time.Duration) (*result, error) {
	r, setup, err := bootRepeated(ctx, bootTiny(seed))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	seq := NewSequence(seed, tinyMix)
	lr, cost, err := measure(func() loopResult {
		return closedLoop(ctx, time.Now(), slots, d, seq, tinyOp(r, seq))
	})
	if err != nil {
		return nil, err
	}
	res := newResult()
	if err := reportServing(res, setup, lr, cost); err != nil {
		return nil, err
	}
	return res, ctx.Err()
}

// --- edge-mixed ----------------------------------------------------

// edgeRate is edge-mixed's fixed arrival rate in ops/s, about a
// quarter of what two slots serve on a 2-core machine, so the
// generator keeps to its schedule.
const edgeRate = 400

// edgeMix is edge-mixed's traffic: ~85% sync invokes, 12% async, 3%
// federated telemetry reads, over five functions and four tenants.
var edgeMix = Mix{AsyncPerMille: 120, ObsPerMille: 30, Functions: 5, Tenants: 4}

// edgeFuncs are functions of at most a few hundred µs: cheap enough
// that the hop path and the front tier stay a visible share of each
// op. Multi-millisecond functions would saturate both cores instead.
var edgeFuncs = []struct {
	lang, workload string
	scale          int
}{
	{"go", "fib", 5},
	{"python", "json", 9},
	{"node", "cpustress", 3125},
	{"lua", "mergesort", 1875},
	{"ruby", "logging", 46},
}

// edgeSLO is one availability and one latency objective.
const edgeSLO = "invoke-availability:availability:success>=99%,invoke-latency:latency:p99<250ms"

func bootEdge(seed int64) func(context.Context) (*rig, error) {
	return func(ctx context.Context) (*rig, error) {
		c, err := confbench.New(
			confbench.WithSeed(seed),
			confbench.WithShards(2),
			confbench.WithObsScrapeInterval(time.Second),
			confbench.WithSLOSpec(edgeSLO),
		)
		if err != nil {
			return nil, fmt.Errorf("boot edge-mixed deployment: %w", err)
		}
		r := &rig{cluster: c}
		for _, ef := range edgeFuncs {
			f, err := newBenchFunc(c.Catalog(), ef.lang, ef.workload, ef.scale)
			if err != nil {
				_ = c.Close()
				return nil, err
			}
			r.funcs = append(r.funcs, f)
		}
		for t := 0; t < edgeMix.Tenants; t++ {
			cl, err := confbench.NewClient(c.GatewayURL(), confbench.WithClientTenant(tenantName(t)))
			if err != nil {
				_ = c.Close()
				return nil, err
			}
			r.clients = append(r.clients, cl)
		}
		if err := r.uploadAndWarm(ctx); err != nil {
			_ = c.Close()
			return nil, err
		}
		return r, nil
	}
}

func tenantName(t int) string { return fmt.Sprintf("tenant-%d", t) }

// obsRead is one federated telemetry read: the cluster invoke
// counter it saw and when the read was in flight.
type obsRead struct {
	start, end time.Time
	invokes    uint64
}

// edgeRunner executes edge-mixed ops and keeps what the checks need.
type edgeRunner struct {
	r   *rig
	seq *Sequence

	mu    sync.Mutex
	reads []obsRead
}

// do runs op i of the sequence and checks its outcome.
func (e *edgeRunner) do(ctx context.Context, i int64) error {
	op := e.seq.At(i)
	f, c := e.r.funcs[op.Fn], e.r.clients[op.Tenant]
	var err error
	switch op.Kind {
	case OpInvoke:
		var resp confbench.InvokeResponse
		if resp, err = c.Invoke(ctx, f.request(op)); err == nil {
			err = f.check(resp, op.TEE, op.Secure)
		}
	case OpAsync:
		var resp confbench.InvokeResponse
		if resp, err = invokeAsync(ctx, c, f.request(op)); err == nil {
			err = f.check(resp, op.TEE, op.Secure)
		}
	case OpObs:
		start := time.Now()
		var cs confbench.ClusterObsSnapshot
		if cs, err = c.ObsCluster(ctx, 0); err == nil {
			e.mu.Lock()
			e.reads = append(e.reads, obsRead{start: start, end: time.Now(),
				invokes: sumCounters(cs.Merged, "confbench_fronttier_invokes_total")})
			e.mu.Unlock()
		}
	}
	if err != nil {
		fmt.Printf("op %d (%s) failed: %v\n", i, op.Kind, err)
	}
	return err
}

// invokeAsync submits req and long-polls until its result is final.
func invokeAsync(ctx context.Context, c *confbench.Client, req confbench.InvokeRequest) (confbench.InvokeResponse, error) {
	sub, err := c.InvokeAsync(ctx, req)
	if err != nil {
		return confbench.InvokeResponse{}, err
	}
	for {
		res, err := c.ResultWait(ctx, sub.ID, time.Second)
		if err != nil {
			return confbench.InvokeResponse{}, err
		}
		switch res.Status {
		case confbench.AsyncPending:
			continue
		case confbench.AsyncDone:
			if res.Response == nil {
				return confbench.InvokeResponse{}, fmt.Errorf("async %s done without a response", sub.ID)
			}
			return *res.Response, nil
		default:
			return confbench.InvokeResponse{}, fmt.Errorf("async %s ended %s: %+v", sub.ID, res.Status, res.Error)
		}
	}
}

// monotonicViolations counts reads that saw a smaller invoke counter
// than a read which had already completed before they started.
func monotonicViolations(reads []obsRead) int {
	sort.Slice(reads, func(i, j int) bool { return reads[i].start.Before(reads[j].start) })
	bad := 0
	for i, r := range reads {
		for _, prev := range reads[:i] {
			if prev.end.Before(r.start) && r.invokes < prev.invokes {
				bad++
				break
			}
		}
	}
	return bad
}

// sumCounters sums every labelled series of a counter family.
func sumCounters(s obs.Snapshot, family string) uint64 {
	var total uint64
	for id, v := range s.Counters {
		if id == family || strings.HasPrefix(id, family+"{") {
			total += v
		}
	}
	return total
}

func runEdgeMixed(ctx context.Context, seed int64, d time.Duration) (*result, error) {
	r, setup, err := bootRepeated(ctx, bootEdge(seed))
	if err != nil {
		return nil, err
	}
	defer r.Close()
	e := &edgeRunner{r: r, seq: NewSequence(seed, edgeMix)}
	lr, cost, err := measure(func() loopResult {
		return openLoop(ctx, time.Now(), slots, time.Second/edgeRate, d, e.seq, e.do)
	})
	if err != nil {
		return nil, err
	}
	res := newResult()
	if err := reportServing(res, setup, lr, cost); err != nil {
		return nil, err
	}
	for _, k := range []struct {
		kind OpKind
		name string
	}{{OpInvoke, "sync_p50_ms"}, {OpAsync, "async_p50_ms"}, {OpObs, "obs_read_p50_ms"}} {
		h := &lr.ByKind[k.kind]
		note(k.name, h.quantile(0.5), "ms", h.n)
	}
	lag := lr.Lag.dist()
	note("loadgen.lag_p99_ms", lag.P99, "ms", lag.N)
	note("offered_rate_ops_s", edgeRate, "1/s", lr.Attempted)
	if len(e.reads) == 0 {
		res.fail("no ObsCluster read completed")
	}
	if bad := monotonicViolations(e.reads); bad > 0 {
		res.fail("%d ObsCluster reads saw the invoke counter decrease", bad)
	}
	return res, ctx.Err()
}
