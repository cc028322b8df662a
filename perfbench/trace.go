package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"confbench"
	"confbench/internal/api"
	"confbench/internal/hostagent"
	"confbench/internal/obs"
	"confbench/internal/vm"
)

// The traced run measures every layer from outside: it calls each
// module's public entry point for the same op in turn, from the
// outermost (the API client) to the innermost (TEE pricing), and
// records one span per call. A layer's self time is its call minus
// the next inner call on the same op. The program is not
// instrumented; counters it already keeps are read before and after.

// span is one timed call of the traced run.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op's root span
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the run's spans in memory until the run ends. The
// traced replay is serial, so it needs no locking.
type tracer struct {
	t0    time.Time
	spans []span
}

// timed runs f inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int, op int64, f func() error) (time.Duration, error) {
	id := t.begin(name, parent, op)
	err := f()
	return t.end(id), err
}

func (t *tracer) begin(name string, parent int, op int64) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// endedNow records a span of length d that ends now.
func (t *tracer) endedNow(name string, parent int, op int64, d time.Duration) {
	end := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: end - int64(d), End: end})
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// write stores the spans as JSON lines under the checkout's build
// directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}

// samples collects per-op values by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// p50 is the median of a collected series.
func (s samples) p50(name string) float64 { return median(append([]float64(nil), s[name]...)) }

// Sample sizes of the serial replays.
const (
	tinyReplayOps   = 600
	probeReplayOps  = 200
	edgeReplaySync  = 300
	edgeReplayAsync = 60
	edgeReplayObs   = 30
)

func runTrace(ctx context.Context, workload string, seed int64, d time.Duration) (*result, error) {
	res := newResult()
	tr := &tracer{t0: time.Now()}
	// Each load segment gets a fifth of the run; the replays and the
	// figure protocol take what they take.
	seg := d / 5
	if seg < time.Second {
		seg = time.Second
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"invoke-tiny layers", func() error { return traceTiny(ctx, res, tr, seed, seg) }},
		{"edge-mixed layers", func() error { return traceEdge(ctx, res, tr, seed, seg) }},
		{"compute layers", func() error { return traceCompute(ctx, res, tr) }},
		{"figure layers", func() error { return traceFigures(ctx, res, tr) }},
	}
	for _, s := range steps {
		fmt.Println(s.name)
		if err := s.run(); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	path := filepath.Join(".bench_build", "trace", fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("wrote %d spans to %s\n", len(tr.spans), path)
	return res, ctx.Err()
}

// snapDelta reads counter and histogram growth between two snapshots
// of one registry, summed over label sets.
type snapDelta struct{ before, after obs.Snapshot }

func (s snapDelta) counter(family string) float64 {
	return float64(sumCounters(s.after, family)) - float64(sumCounters(s.before, family))
}

func (s snapDelta) hist(family string) obs.HistogramSnapshot {
	var out obs.HistogramSnapshot
	for id, a := range s.after.Histograms {
		if id != family && !strings.HasPrefix(id, family+"{") {
			continue
		}
		b := s.before.Histograms[id]
		if out.Counts == nil {
			out.Bounds = a.Bounds
			out.Counts = make([]uint64, len(a.Counts))
		}
		for i := range a.Counts {
			if i < len(b.Counts) {
				out.Counts[i] += a.Counts[i] - b.Counts[i]
			} else {
				out.Counts[i] += a.Counts[i]
			}
		}
		out.Count += a.Count - b.Count
		out.SumSeconds += a.SumSeconds - b.SumSeconds
	}
	return out
}

// guestTarget is one VM as the traced replay reaches it: through the
// host's relay, and directly through a benchmark-owned guest server on
// the same VM.
type guestTarget struct {
	relayed, direct string
	machine         *vm.VM
}

// checkGuest verifies a guest-level response (no host is stamped
// below the gateway).
func (f benchFunc) checkGuest(resp api.InvokeResponse, op Op) error {
	resp.Host = string(op.TEE) + "-host"
	return f.check(resp, op.TEE, op.Secure)
}

func traceTiny(ctx context.Context, res *result, tr *tracer, seed int64, seg time.Duration) error {
	r, err := bootTiny(seed)(ctx)
	if err != nil {
		return err
	}
	defer r.Close()
	c, f, client := r.cluster, r.funcs[0], r.clients[0]
	gw := c.Gateway()
	transport := gw.Transport()

	// Counters under concurrent load: a closed-loop segment.
	seq := NewSequence(seed, tinyMix)
	before := c.Obs().Snapshot()
	lr := closedLoop(ctx, time.Now(), slots, seg, seq, tinyOp(r, seq))
	delta := snapDelta{before, c.Obs().Snapshot()}
	res.count(lr.Attempted, lr.Failed)
	ops := float64(lr.Attempted)
	batch := delta.hist("confbench_wire_batch_size") // observes frames as seconds
	pool := delta.hist("confbench_pool_checkout_wait_seconds")
	res.set("wire.frames_per_flush", batch.SumSeconds/float64(batch.Count), "count", int(batch.Count))
	res.set("gateway.pool_wait.p99_us", pool.Quantile(0.99)*1e6, "us", int(pool.Count))
	res.set("gateway.retries", delta.counter("confbench_invoke_retries_total"), "count", lr.Attempted)
	res.set("tee.transitions_per_op", delta.counter("confbench_tee_transitions_total")/ops, "count", lr.Attempted)
	res.set("relay.bytes_per_op", delta.counter("confbench_relay_bytes_forwarded_total")/ops, "bytes", lr.Attempted)

	targets := map[int]guestTarget{}
	for ci, cb := range combos {
		agent, err := c.Agent(cb.kind)
		if err != nil {
			return err
		}
		ep, err := agent.Endpoint(cb.secure)
		if err != nil {
			return err
		}
		machine := agent.Pair().Normal
		if cb.secure {
			machine = agent.Pair().Secure
		}
		gs, err := hostagent.NewGuestServer(hostagent.GuestServerConfig{
			VM: machine, Obs: obs.New(), Host: agent.Name(),
		})
		if err != nil {
			return err
		}
		defer gs.Close()
		targets[ci] = guestTarget{relayed: ep.Addr, direct: gs.Addr(), machine: machine}
	}
	comboOf := func(op Op) int {
		for ci, cb := range combos {
			if cb.kind == op.TEE && cb.secure == op.Secure {
				return ci
			}
		}
		return -1
	}
	guestReq := &api.GuestInvokeRequest{Function: f.fn, Scale: f.scale}
	// calls are the nested entry points of one op, outermost first.
	calls := func(op Op) []struct {
		name string
		call func() error
	} {
		t := targets[comboOf(op)]
		req := f.request(op)
		roundTrip := func(addr string) func() error {
			return func() error {
				var resp api.InvokeResponse
				if err := transport.RoundTrip(ctx, addr, api.GuestV1Invoke, guestReq, &resp); err != nil {
					return err
				}
				return f.checkGuest(resp, op)
			}
		}
		return []struct {
			name string
			call func() error
		}{
			{"api", func() error {
				resp, err := client.Invoke(ctx, req)
				if err != nil {
					return err
				}
				return f.check(resp, op.TEE, op.Secure)
			}},
			{"gateway", func() error {
				resp, err := gw.Invoke(ctx, req)
				if err != nil {
					return err
				}
				return f.check(resp, op.TEE, op.Secure)
			}},
			{"wire", roundTrip(t.relayed)},
			{"hostagent", roundTrip(t.direct)},
			{"vm", func() error {
				out, err := t.machine.InvokeFunction(ctx, f.fn, f.scale)
				if err != nil {
					return err
				}
				return f.checkGuest(api.InvokeResponse{Output: out.Output, Platform: out.Platform, Secure: out.Secure}, op)
			}},
		}
	}
	usage, err := targets[0].machine.InvokeFunction(ctx, f.fn, f.scale)
	if err != nil {
		return err
	}
	for _, t := range targets { // open the direct connections
		var resp api.InvokeResponse
		if err := transport.RoundTrip(ctx, t.direct, api.GuestV1Invoke, guestReq, &resp); err != nil {
			return err
		}
	}

	// Timing pass: spans for every nested call, plus the same API
	// call untraced, alternating which goes first.
	s := samples{}
	for i := int64(0); i < tinyReplayOps; i++ {
		op := seq.At(i)
		untraced := func() {
			t0 := time.Now()
			resp, err := client.Invoke(ctx, f.request(op))
			s.add("untraced", us(time.Since(t0)))
			if err == nil {
				err = f.check(resp, op.TEE, op.Secure)
			}
			tally(res, err)
		}
		if i%2 == 0 {
			untraced()
		}
		root := tr.begin("op", 0, i)
		for _, cl := range calls(op) {
			dur, err := tr.timed(cl.name, root, i, cl.call)
			s.add(cl.name, us(dur))
			tally(res, err)
		}
		machine := targets[comboOf(op)].machine
		dur, _ := tr.timed("tee", root, i, func() error { machine.PriceUsage(usage.Usage); return nil })
		s.add("tee", us(dur))
		tr.end(root)
		if i%2 == 1 {
			untraced()
		}
	}
	n := tinyReplayOps
	api50 := s.p50("api")
	self := samples{}
	layers := []string{"api", "gateway", "wire", "hostagent", "vm", "tee"}
	for k := 0; k < n; k++ {
		for j, name := range layers {
			v := s[name][k]
			if j+1 < len(layers) {
				v -= s[layers[j+1]][k]
			}
			self.add(name, v)
		}
	}
	res.set("api.invoke.p50_us", api50, "us", n)
	res.set("gateway.invoke.p50_us", s.p50("gateway"), "us", n)
	res.set("wire.guest_rt.p50_us", s.p50("wire"), "us", n)
	res.set("hostagent.guest_rt_direct.p50_us", s.p50("hostagent"), "us", n)
	res.set("relay.hop.p50_us", self.p50("wire"), "us", n)
	res.set("vm.invoke.p50_us", s.p50("vm"), "us", n)
	res.set("tee.price.p50_us", s.p50("tee"), "us", n)
	for _, l := range []struct{ metric, layer string }{
		{"self.front_door.share", "api"},
		{"self.gateway.share", "gateway"},
		{"self.relay.share", "wire"},
		{"self.guest_server.share", "hostagent"},
		{"self.vm.share", "vm"},
		{"self.tee.share", "tee"},
	} {
		res.set(l.metric, self.p50(l.layer)/api50, "share", n)
	}
	untraced := s.p50("untraced")
	res.set("trace.overhead_share", (api50-untraced)/untraced, "share", n)

	// Cost pass: allocations and read/write syscalls of the three
	// network-facing calls, one probe kind at a time so neither probe
	// is counted by the other.
	probe, err := syscallProbeCost()
	if err != nil {
		return err
	}
	cost := samples{}
	for i := int64(0); i < probeReplayOps; i++ {
		for _, cl := range calls(seq.At(i))[:3] {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			err := cl.call()
			runtime.ReadMemStats(&m1)
			tally(res, err)
			cost.add(cl.name+".allocs", float64(m1.Mallocs-m0.Mallocs))

			s0, err := readSyscalls()
			if err != nil {
				return err
			}
			err = cl.call()
			s1, rerr := readSyscalls()
			if rerr != nil {
				return rerr
			}
			tally(res, err)
			cost.add(cl.name+".syscalls", float64(s1-s0)-probe)
		}
	}
	res.set("api.invoke.allocs", cost.p50("api.allocs"), "count", probeReplayOps)
	res.set("api.invoke.syscalls", cost.p50("api.syscalls"), "count", probeReplayOps)
	res.set("gateway.invoke.allocs", cost.p50("gateway.allocs"), "count", probeReplayOps)
	res.set("wire.guest_rt.allocs", cost.p50("wire.allocs"), "count", probeReplayOps)
	res.set("wire.guest_rt.syscalls", cost.p50("wire.syscalls"), "count", probeReplayOps)
	return nil
}

// syscallProbeCost is how many read/write syscalls one reading of the
// syscall counters itself adds to the next reading.
func syscallProbeCost() (float64, error) {
	var ds []float64
	for i := 0; i < 21; i++ {
		a, err := readSyscalls()
		if err != nil {
			return 0, err
		}
		b, err := readSyscalls()
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(b-a))
	}
	return median(ds), nil
}

// tally counts one checked call.
func tally(res *result, err error) {
	if err != nil {
		res.fail("%v", err)
		return
	}
	res.count(1, 0)
}

func traceEdge(ctx context.Context, res *result, tr *tracer, seed int64, seg time.Duration) error {
	r, err := bootEdge(seed)(ctx)
	if err != nil {
		return err
	}
	defer r.Close()
	c := r.cluster
	tier := c.FrontTier()
	gw := c.Gateway() // every shard serves every host, so shard 0 stands for all

	seq := NewSequence(seed, edgeMix)
	e := &edgeRunner{r: r, seq: seq}
	before := c.Obs().Snapshot()
	lr := openLoop(ctx, time.Now(), slots, time.Second/edgeRate, seg, seq, e.do)
	delta := snapDelta{before, c.Obs().Snapshot()}
	res.count(lr.Attempted, lr.Failed)
	lag := lr.Lag.dist()
	res.set("loadgen.lag_p99_ms", lag.P99, "ms", lag.N)
	res.set("fronttier.sheds", delta.counter("confbench_fronttier_sheds_total"), "count", lr.Attempted)
	res.set("fronttier.failovers", delta.counter("confbench_fronttier_failovers_total"), "count", lr.Attempted)

	// Replay a seeded sample of the sequence: its first ops of each
	// kind, one at a time.
	want := map[OpKind]int{OpInvoke: edgeReplaySync, OpAsync: edgeReplayAsync, OpObs: edgeReplayObs}
	s := samples{}
	for i := int64(0); want[OpInvoke]+want[OpAsync]+want[OpObs] > 0; i++ {
		op := seq.At(i)
		if want[op.Kind] == 0 {
			continue
		}
		want[op.Kind]--
		f, client, tenant := r.funcs[op.Fn], r.clients[op.Tenant], tenantName(op.Tenant)
		req := f.request(op)
		root := tr.begin("op "+op.Kind.String(), 0, i)
		record := func(name string, call func() error) {
			dur, err := tr.timed(name, root, i, call)
			s.add(name, us(dur))
			tally(res, err)
		}
		switch op.Kind {
		case OpInvoke:
			record("api", func() error {
				resp, err := client.Invoke(ctx, req)
				if err != nil {
					return err
				}
				return f.check(resp, op.TEE, op.Secure)
			})
			record("fronttier", func() error {
				resp, err := tier.Invoke(ctx, tenant, req)
				if err != nil {
					return err
				}
				return f.check(resp, op.TEE, op.Secure)
			})
			record("gateway", func() error {
				resp, err := gw.Invoke(ctx, req)
				if err != nil {
					return err
				}
				return f.check(resp, op.TEE, op.Secure)
			})
		case OpAsync:
			var id string
			record("fronttier.submit", func() error {
				sub, err := tier.SubmitAsync(tenant, req)
				id = sub.ID
				return err
			})
			record("fronttier.await", func() error {
				for {
					ar, err := client.ResultWait(ctx, id, time.Second)
					if err != nil {
						return err
					}
					if ar.Status == confbench.AsyncPending {
						continue
					}
					if ar.Status != confbench.AsyncDone || ar.Response == nil {
						return fmt.Errorf("async %s ended %s", id, ar.Status)
					}
					return f.check(*ar.Response, op.TEE, op.Secure)
				}
			})
		case OpObs:
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			record("obs.read", func() error { _, err := client.ObsCluster(ctx, 0); return err })
			runtime.ReadMemStats(&m1)
			s.add("obs.read.alloc", float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
			record("obs.scrape", func() error {
				cs := tier.ScrapeOnce(ctx, time.Now())
				if len(cs.ScrapeErrors) > 0 {
					return fmt.Errorf("scrape errors: %v", cs.ScrapeErrors)
				}
				return nil
			})
		}
		tr.end(root)
	}
	apiP50 := s.p50("api")
	self := samples{}
	for k := range s["api"] {
		self.add("front", s["api"][k]-s["fronttier"][k])
		self.add("tier", s["fronttier"][k]-s["gateway"][k])
	}
	res.set("api.edge_invoke.p50_us", apiP50, "us", edgeReplaySync)
	res.set("fronttier.invoke.p50_us", s.p50("fronttier"), "us", edgeReplaySync)
	res.set("self.edge_front_door.share", self.p50("front")/apiP50, "share", edgeReplaySync)
	res.set("self.fronttier.share", self.p50("tier")/apiP50, "share", edgeReplaySync)
	res.set("fronttier.submit.p50_us", s.p50("fronttier.submit"), "us", edgeReplayAsync)
	res.set("fronttier.await.p50_us", s.p50("fronttier.await"), "us", edgeReplayAsync)
	res.set("obs.read.p50_ms", s.p50("obs.read")/1000, "ms", edgeReplayObs)
	res.set("obs.read.alloc_kb", s.p50("obs.read.alloc"), "KiB", edgeReplayObs)
	res.set("obs.scrape.p50_ms", s.p50("obs.scrape")/1000, "ms", edgeReplayObs)
	return nil
}
