// Command confbench-bench regenerates the paper's tables and figures
// on the simulated test bed and prints them as text.
//
// Usage:
//
//	confbench-bench [-fig all|3|dbms|4|5|6|7|8|colocation|storage|migration] [-trials N]
//	                [-scale-divisor N] [-size N] [-seed N] [-workers N]
//	                [-trace] [-chaos SPECS [-chaos-invokes N]] [-coldstart]
//	                [-shards N [-async] [-tenant NAME] [-invokes N]]
//	                [-durable-dir DIR] [-slo SPEC]
//
// With the defaults it runs the paper's full protocol (10 trials,
// full workload scales, speedtest size 100); pass -quick for a
// CI-sized run. -workers N schedules heatmap cells and per-image
// inferences over N concurrent workers (1, the default, keeps the
// bit-for-bit deterministic serial schedule). Ctrl-C cancels the run
// cleanly through the context plumbing. -trace runs one traced secure
// invocation per catalog workload through the gateway after the
// figures and prints the slowest span tree per workload — the full
// gateway → pool → relay → host agent → VM → TEE path with durations.
// -chaos SPECS skips the figures and runs a chaos drill instead: the
// specs are registered on a seeded fault plane, a two-hosts-per-TEE
// cluster is booted, and the report shows injected faults, gateway
// retries, and per-endpoint breaker states. -shards N (> 1) skips the
// figures and runs the front-tier bench: a seeded invocation mix is
// driven through N gateway shards — with -async through the
// submit→poll path, with -tenant stamped with that tenant identity —
// and the aggregate (routing distribution, sheds, total virtual wall)
// is bit-identical per seed. -fig storage (excluded from "all") prices
// the speedtest suite on the durable log-structured backend against
// the in-memory pager — write amplification and per-commit fsyncs,
// under each TEE's cost model. -fig migration (also excluded from
// "all") boots a two-hosts-per-TEE warm-pooled cluster, drains one
// host per platform mid-service — live-migrating its serving and warm
// guests behind the attestation gate — and reports the blackout
// window against the cold boot and warm restore it replaces, plus the
// transfer bill under each TEE's cost model.
// -durable-dir DIR roots the persistence
// plane: gateway telemetry spills (and replays) under DIR, and the
// storage figure keeps its speedtest logs there for inspection.
// -slo SPEC skips the figures and runs an SLO-gated drill: the
// objectives are evaluated every federation sweep while a seeded
// invocation mix (optionally under -chaos faults, -chaos-invokes of
// them) runs, the error-budget table and alert timeline are
// printed, and the command exits non-zero if any objective fired or
// overspent its budget — so CI can gate on "stays within SLO".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"confbench"
	"confbench/internal/bench"
	"confbench/internal/profiler"
	"confbench/internal/tee"
	"confbench/internal/wire"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "confbench-bench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("confbench-bench", flag.ContinueOnError)
	fig := fs.String("fig", "all", "figure to regenerate: all, 3, dbms, 4, 5, 6, 7, 8, colocation, storage, migration (storage and migration are not part of all)")
	trials := fs.Int("trials", 10, "independent trials per measurement point")
	scaleDiv := fs.Int("scale-divisor", 1, "divide workload scales by this factor")
	dbSize := fs.Int("size", 100, "speedtest relative size (speedtest1 --size)")
	images := fs.Int("images", 40, "ML dataset size")
	seed := fs.Int64("seed", 1, "deterministic noise seed")
	workers := fs.Int("workers", 1, "concurrent measurement units (1 = deterministic serial schedule)")
	quick := fs.Bool("quick", false, "CI-sized run (3 trials, scales ÷8, size 20, 10 images)")
	trace := fs.Bool("trace", false, "print the slowest traced span tree per workload")
	jsonPath := fs.String("json", "", "also write results as JSON to this file")
	chaos := fs.String("chaos", "", "run a chaos drill instead of figures: comma-separated fault specs, e.g. hostagent.exec:error:1.0:host=sev-host")
	sloSpec := fs.String("slo", "", `run an SLO-gated drill instead of figures: comma-separated objectives, e.g. "avail:availability:success>=99.9%"; composes with -chaos; exits non-zero on violation`)
	chaosInvokes := fs.Int("chaos-invokes", 100, "invocations in the chaos drill")
	coldstart := fs.Bool("coldstart", false, "run the cold-vs-warm start benchmark instead of figures")
	obsWindow := fs.Int("obs-window", 0, "print windowed cluster telemetry rates over this many scrape samples (0 = off)")
	shards := fs.Int("shards", 0, "run the front-tier bench instead of figures: deploy this many gateway shards (>1)")
	async := fs.Bool("async", false, "front-tier bench: drive invocations through the async submit→poll path")
	tenant := fs.String("tenant", "", "front-tier bench: stamp requests with this tenant identity")
	ftInvokes := fs.Int("invokes", 60, "front-tier bench: invocations to drive")
	transport := fs.String("transport", "", "pipeline hop carrier: binary (default, persistent multiplexed wire frames) or httpjson (JSON over HTTP on every hop)")
	durableDir := fs.String("durable-dir", "", "root of the durable persistence plane: gateway telemetry spills here, and -fig storage keeps its speedtest logs here (empty = in-memory telemetry, throwaway storage logs)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address while the bench runs (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !wire.ValidTransport(*transport) {
		return fmt.Errorf("unknown transport %q (want %q or %q)",
			*transport, wire.TransportHTTPJSON, wire.TransportBinary)
	}
	if *pprofAddr != "" {
		url, stopProf, err := profiler.Enable(*pprofAddr)
		if err != nil {
			return err
		}
		defer stopProf()
		fmt.Fprintln(os.Stderr, "pprof serving", url)
	}
	if *quick {
		*trials, *scaleDiv, *dbSize, *images = 3, 8, 20, 10
	}
	if *sloSpec != "" {
		return runSLO(ctx, *sloSpec, *chaos, *seed, *chaosInvokes)
	}
	if *chaos != "" {
		return runChaos(ctx, *chaos, *seed, *chaosInvokes, *obsWindow)
	}
	if *shards > 1 {
		out, err := fronttierReport(ctx, *seed, *shards, *ftInvokes, *tenant, *async, *transport)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}
	if *coldstart {
		out, _, err := coldstartReport(ctx, *seed, 16)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}
	// The migration figure boots its own two-hosts-per-TEE warm-pooled
	// cluster (it drains hosts mid-run), so it runs before — and
	// instead of — the shared single-host deployment below.
	if *fig == "migration" {
		out, _, err := migrationReport(ctx, *seed, 16)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}

	clusterOpts := []confbench.Option{
		confbench.WithSeed(*seed),
		confbench.WithGuestMemoryMB(16),
		confbench.WithWorkers(*workers),
		confbench.WithTransport(*transport),
	}
	if *durableDir != "" {
		clusterOpts = append(clusterOpts, confbench.WithDurableDir(*durableDir))
	}
	cluster, err := confbench.New(clusterOpts...)
	if err != nil {
		return err
	}
	defer cluster.Close()

	want := func(name string) bool { return *fig == "all" || *fig == name }
	opts := bench.Options{Trials: *trials, ScaleDivisor: *scaleDiv, Workers: *workers, Obs: cluster.Obs()}
	report := &bench.Report{Meta: map[string]any{
		"trials": *trials, "scale_divisor": *scaleDiv, "db_size": *dbSize,
		"images": *images, "seed": *seed, "workers": *workers,
	}}

	if want("3") {
		var results []bench.MLResult
		for _, kind := range cluster.Kinds() {
			pair, err := cluster.Pair(kind)
			if err != nil {
				return err
			}
			res, err := bench.ML(ctx, pair, bench.MLOptions{Images: *images, Workers: *workers, Obs: cluster.Obs()})
			if err != nil {
				return fmt.Errorf("fig 3 (%s): %w", kind, err)
			}
			results = append(results, res)
		}
		report.ML = results
		fmt.Println(bench.RenderML(results))
	}

	if want("dbms") {
		var results []bench.DBMSResult
		for _, kind := range cluster.Kinds() {
			pair, err := cluster.Pair(kind)
			if err != nil {
				return err
			}
			res, err := bench.DBMS(ctx, pair, bench.DBMSOptions{Size: *dbSize})
			if err != nil {
				return fmt.Errorf("dbms (%s): %w", kind, err)
			}
			results = append(results, res)
		}
		report.DBMS = results
		fmt.Println(bench.RenderDBMS(results))
	}

	// The storage figure runs only when asked for by name: it doubles
	// the speedtest work (memory + durable run per platform), so "all"
	// keeps the paper's original protocol.
	if *fig == "storage" {
		var results []bench.DBMSStorageResult
		for _, kind := range cluster.Kinds() {
			pair, err := cluster.Pair(kind)
			if err != nil {
				return err
			}
			res, err := bench.DBMSStorage(ctx, pair, bench.DBMSStorageOptions{Size: *dbSize, Dir: *durableDir})
			if err != nil {
				return fmt.Errorf("storage (%s): %w", kind, err)
			}
			results = append(results, res)
		}
		report.Storage = results
		fmt.Println(bench.RenderDBMSStorage(results))
	}

	if want("4") {
		var results []bench.UnixBenchResult
		for _, kind := range cluster.Kinds() {
			pair, err := cluster.Pair(kind)
			if err != nil {
				return err
			}
			scale := 1.0 / float64(*scaleDiv)
			res, err := bench.UnixBench(ctx, pair, bench.UnixBenchOptions{Scale: scale})
			if err != nil {
				return fmt.Errorf("fig 4 (%s): %w", kind, err)
			}
			results = append(results, res)
		}
		report.UnixBench = results
		fmt.Println(bench.RenderUnixBench(results))
	}

	if want("5") {
		var results []bench.AttestationResult
		ta, tv, err := cluster.TDXAttestation()
		if err != nil {
			return err
		}
		tdxRes, err := bench.Attestation(ctx, tee.KindTDX, ta, tv, *trials)
		if err != nil {
			return fmt.Errorf("fig 5 (tdx): %w", err)
		}
		results = append(results, tdxRes)
		sa, sv, err := cluster.SEVAttestation()
		if err != nil {
			return err
		}
		sevRes, err := bench.Attestation(ctx, tee.KindSEV, sa, sv, *trials)
		if err != nil {
			return fmt.Errorf("fig 5 (sev): %w", err)
		}
		results = append(results, sevRes)
		report.Attestation = results
		fmt.Println(bench.RenderAttestation(results))
	}

	heatmap := func(kind tee.Kind) error {
		pair, err := cluster.Pair(kind)
		if err != nil {
			return err
		}
		res, err := bench.FaaS(ctx, pair, cluster.Catalog(), bench.FaaSOptions{Options: opts})
		if err != nil {
			return fmt.Errorf("heatmap (%s): %w", kind, err)
		}
		report.FaaS = append(report.FaaS, res)
		fmt.Println(bench.RenderHeatmap(res))
		return nil
	}
	if want("6") {
		for _, kind := range bench.KindsTDXSEV {
			if err := heatmap(kind); err != nil {
				return err
			}
		}
	}
	if want("7") {
		if err := heatmap(tee.KindCCA); err != nil {
			return err
		}
	}

	if want("8") {
		pair, err := cluster.Pair(tee.KindCCA)
		if err != nil {
			return err
		}
		res, err := bench.FaaS(ctx, pair, cluster.Catalog(), bench.FaaSOptions{
			Options: bench.Options{Trials: 10, ScaleDivisor: *scaleDiv, Workers: *workers},
			Workloads: []string{
				"cpustress", "memstress", "iostress", "logging", "factors", "filesystem",
			},
		})
		if err != nil {
			return fmt.Errorf("fig 8: %w", err)
		}
		var rendered []string
		for _, lang := range res.Languages {
			out, err := bench.RenderBoxPlots(res, lang)
			if err != nil {
				return err
			}
			rendered = append(rendered, out)
		}
		fmt.Println(strings.Join(rendered, "\n"))
	}

	if want("colocation") {
		for _, kind := range cluster.Kinds() {
			backend, err := cluster.Backend(kind)
			if err != nil {
				return err
			}
			res, err := bench.CoLocation(ctx, backend, cluster.Catalog(), bench.CoLocationOptions{
				Tenants: 4, Trials: *trials,
			})
			if err != nil {
				return fmt.Errorf("colocation (%s): %w", kind, err)
			}
			report.CoLocation = append(report.CoLocation, res)
			fmt.Println(bench.RenderCoLocation(res))
		}
	}

	if *trace {
		if err := runTrace(ctx, cluster, *scaleDiv); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}

	if *obsWindow > 0 {
		if err := obsWindowReport(ctx, cluster.Client(), *obsWindow); err != nil {
			return fmt.Errorf("obs-window: %w", err)
		}
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return fmt.Errorf("create json report: %w", err)
		}
		defer f.Close()
		if err := report.WriteJSON(f); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote JSON report to %s\n", *jsonPath)
	}
	return nil
}

// runChaos boots a two-hosts-per-TEE cluster with the given fault
// specs registered on a seeded fault plane, fires invocations at the
// gateway, and reports what was injected and how the pools reacted —
// retries, breaker states, and the client-visible failure count.
// With a fault pinned to one host (e.g. host=sev-host) the run should
// end with zero failures: the breaker takes the faulted endpoint out
// of rotation and the dispatcher retries onto its healthy sibling.
func runChaos(ctx context.Context, spec string, seed int64, invokes, obsWindow int) error {
	specs, err := confbench.ParseFaultSpecs(spec)
	if err != nil {
		return err
	}
	plane := confbench.NewFaultPlane(seed)
	for _, s := range specs {
		if err := plane.Register(s); err != nil {
			return err
		}
	}
	cluster, err := confbench.New(
		confbench.WithSeed(seed),
		confbench.WithGuestMemoryMB(16),
		confbench.WithFaultPlane(plane),
		confbench.WithHostsPerTEE(2),
		// A long cooldown keeps tripped endpoints visibly open in the
		// final pool report instead of racing half-open probes.
		confbench.WithBreakerThreshold(0, 30*time.Second),
	)
	if err != nil {
		return err
	}
	defer cluster.Close()

	client := cluster.Client()
	fn := confbench.Function{Name: "chaos-cpustress", Language: "go", Workload: "cpustress"}
	if err := client.Upload(ctx, fn); err != nil {
		return err
	}
	kinds := cluster.Kinds()
	var failures int
	for i := 0; i < invokes; i++ {
		_, err := client.Invoke(ctx, confbench.InvokeRequest{
			Function: fn.Name,
			Secure:   i%2 == 0,
			TEE:      kinds[i%len(kinds)],
			Scale:    1,
		})
		if err != nil {
			failures++
			fmt.Fprintf(os.Stderr, "invoke %d failed: %v\n", i, err)
		}
	}

	fmt.Printf("=== Chaos drill (seed %d) ===\n", seed)
	fmt.Printf("specs:\n")
	for _, s := range plane.Specs() {
		fmt.Printf("  %s\n", s)
	}
	fmt.Printf("invokes: %d   client-visible failures: %d\n", invokes, failures)

	byPoint := map[string]int{}
	for _, inj := range plane.History() {
		byPoint[string(inj.Point)+":"+string(inj.Kind)]++
	}
	fmt.Printf("faults injected: %d\n", plane.Injected())
	for k, n := range byPoint {
		fmt.Printf("  %-28s %d\n", k, n)
	}

	snap, err := client.Obs(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("gateway retries: %d\n", snap.Counters["confbench_invoke_retries_total"])

	pools, err := client.Pools(ctx)
	if err != nil {
		return err
	}
	fmt.Println("pool health:")
	for _, p := range pools {
		fmt.Printf("  %-4s healthy %d/%d\n", p.TEE, p.Healthy, len(p.Members))
		for _, m := range p.Members {
			fmt.Printf("    %-14s vm=%-16s secure=%-5v breaker=%s\n", m.Host, m.VM, m.Secure, m.Breaker)
		}
	}
	if obsWindow > 0 {
		if err := obsWindowReport(ctx, client, obsWindow); err != nil {
			return fmt.Errorf("obs-window: %w", err)
		}
	}
	return nil
}

// runTrace sends one traced secure invocation per catalog workload to
// every platform and prints the slowest resulting span tree, i.e. the
// worst gateway → pool → relay-hop → host agent → VM → TEE path.
func runTrace(ctx context.Context, cluster *confbench.Cluster, scaleDiv int) error {
	client := cluster.Client()
	fmt.Println("=== Traced invocations (slowest span tree per workload) ===")
	for _, name := range cluster.Catalog().Names() {
		w, err := cluster.Catalog().Lookup(name)
		if err != nil {
			return err
		}
		fn := confbench.Function{Name: "trace-" + name, Language: "go", Workload: name}
		if err := client.Upload(ctx, fn); err != nil {
			return err
		}
		scale := w.DefaultScale / scaleDiv
		if scale < 1 {
			scale = 1
		}
		var slowest *confbench.InvokeResponse
		for _, kind := range cluster.Kinds() {
			resp, err := client.Invoke(ctx, confbench.InvokeRequest{
				Function: fn.Name, Secure: true, TEE: kind, Scale: scale, Trace: true,
			})
			if err != nil {
				return fmt.Errorf("%s on %s: %w", name, kind, err)
			}
			if slowest == nil || resp.WallNs > slowest.WallNs {
				slowest = &resp
			}
		}
		fmt.Printf("\n--- %s (slowest of %d platforms, virtual wall %v) ---\n",
			name, len(cluster.Kinds()), slowest.Wall())
		fmt.Print(confbench.RenderTrace(slowest.Trace))
	}
	return nil
}
