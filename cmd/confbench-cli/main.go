// Command confbench-cli is the user-side client of the ConfBench
// gateway: it uploads functions and submits execution requests,
// printing the results with the piggybacked perf metrics.
//
// Usage:
//
//	confbench-cli -gateway URL [-tenant NAME] upload -name NAME -lang LANG -workload W
//	confbench-cli -gateway URL [-tenant NAME] invoke -name NAME [-tee KIND] [-secure] [-scale N] [-async]
//	confbench-cli -gateway URL functions
//	confbench-cli -gateway URL obs [-json]
//	confbench-cli -gateway URL top [-interval D] [-count N] [-window N]
//	confbench-cli -gateway URL alerts [-json]
//	confbench-cli -gateway URL pools
//	confbench-cli -gateway URL attest -tee KIND
//	confbench-cli -gateway URL drain HOST
package main

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"time"

	"confbench/internal/api"
	"confbench/internal/faas"
	"confbench/internal/tee"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "confbench-cli:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("confbench-cli", flag.ContinueOnError)
	gatewayURL := fs.String("gateway", "http://127.0.0.1:8080", "gateway base URL")
	tenant := fs.String("tenant", "", "tenant identity stamped on every request (front-tier admission quotas key on it)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing subcommand: upload, invoke, functions, pools, metrics, obs, top, alerts, attest, drain")
	}
	var opts []api.Option
	if *tenant != "" {
		opts = append(opts, api.WithTenant(*tenant))
	}
	client, err := api.New(*gatewayURL, opts...)
	if err != nil {
		return err
	}

	switch rest[0] {
	case "upload":
		return cmdUpload(ctx, client, rest[1:])
	case "invoke":
		return cmdInvoke(ctx, client, rest[1:])
	case "functions":
		names, err := client.Functions(ctx)
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Println(n)
		}
		return nil
	case "metrics":
		m, err := client.Metrics(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("uptime:       %.1fs\n", m.UptimeSeconds)
		fmt.Printf("invocations:  %d\n", m.Invocations)
		fmt.Printf("attestations: %d\n", m.Attestations)
		fmt.Printf("errors:       %d\n", m.Errors)
		for pool, n := range m.PerPool {
			fmt.Printf("  pool %-10s %d\n", pool, n)
		}
		return nil
	case "pools":
		pools, err := client.Pools(ctx)
		if err != nil {
			return err
		}
		for _, p := range pools {
			fmt.Printf("%-10s endpoints=%d policy=%s in-flight=%d\n",
				p.TEE, p.Endpoints, p.Policy, p.InFlight)
		}
		return nil
	case "obs":
		return cmdObs(ctx, client, rest[1:])
	case "top":
		return cmdTop(ctx, client, rest[1:])
	case "alerts":
		return cmdAlerts(ctx, client, rest[1:])
	case "attest":
		return cmdAttest(ctx, client, rest[1:])
	case "drain":
		return cmdDrain(ctx, client, rest[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", rest[0])
	}
}

func cmdUpload(ctx context.Context, client *api.Client, args []string) error {
	fs := flag.NewFlagSet("upload", flag.ContinueOnError)
	name := fs.String("name", "", "function name")
	lang := fs.String("lang", "go", "implementation language")
	workload := fs.String("workload", "", "catalog workload the function performs")
	source := fs.String("source", "", "optional source file to attach")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn := faas.Function{Name: *name, Language: *lang, Workload: *workload}
	if *source != "" {
		data, err := os.ReadFile(*source)
		if err != nil {
			return fmt.Errorf("read source: %w", err)
		}
		fn.Source = data
	}
	if err := client.Upload(ctx, fn); err != nil {
		return err
	}
	fmt.Printf("registered %q (%s, workload %s)\n", fn.Name, fn.Language, fn.Workload)
	return nil
}

func cmdInvoke(ctx context.Context, client *api.Client, args []string) error {
	fs := flag.NewFlagSet("invoke", flag.ContinueOnError)
	name := fs.String("name", "", "function name")
	teeKind := fs.String("tee", "", "TEE platform (tdx, sev-snp, cca)")
	secure := fs.Bool("secure", false, "run in a confidential VM")
	scale := fs.Int("scale", 0, "workload scale (0 = default)")
	async := fs.Bool("async", false, "submit via the front tier's async path and poll for the result")
	if err := fs.Parse(args); err != nil {
		return err
	}
	req := api.InvokeRequest{
		Function: *name,
		TEE:      tee.Kind(*teeKind),
		Secure:   *secure,
		Scale:    *scale,
	}
	start := time.Now()
	var resp api.InvokeResponse
	var err error
	if *async {
		sub, serr := client.InvokeAsync(ctx, req)
		if serr != nil {
			return serr
		}
		fmt.Printf("submitted:  %s (%s)\n", sub.ID, sub.Status)
		resp, err = client.AwaitResult(ctx, sub.ID)
	} else {
		resp, err = client.Invoke(ctx, req)
	}
	if err != nil {
		return err
	}
	fmt.Printf("output:     %s\n", resp.Output)
	fmt.Printf("ran on:     %s / %s (secure=%v, platform=%s)\n", resp.Host, resp.VM, resp.Secure, resp.Platform)
	fmt.Printf("exec time:  %v (runtime bootstrap %v, request round trip %v)\n",
		resp.Wall(), time.Duration(resp.BootstrapNs), time.Since(start))
	fmt.Printf("perf:\n%s\n", resp.Perf)
	return nil
}

// cmdObs dumps the gateway's observability registry: every counter
// and gauge, and each latency histogram's count and mean.
func cmdObs(ctx context.Context, client *api.Client, args []string) error {
	fs := flag.NewFlagSet("obs", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "print the raw JSON snapshot")
	if err := fs.Parse(args); err != nil {
		return err
	}
	snap, err := client.Obs(ctx)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	}
	ids := make([]string, 0, len(snap.Counters))
	for id := range snap.Counters {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Printf("%-70s %d\n", id, snap.Counters[id])
	}
	ids = ids[:0]
	for id := range snap.Gauges {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		fmt.Printf("%-70s %d\n", id, snap.Gauges[id])
	}
	ids = ids[:0]
	for id := range snap.Histograms {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		h := snap.Histograms[id]
		mean := 0.0
		if h.Count > 0 {
			mean = h.SumSeconds / float64(h.Count)
		}
		fmt.Printf("%-70s count=%d mean=%.6fs\n", id, h.Count, mean)
	}
	return nil
}

// cmdDrain asks the deployment to drain a host: quiesce its
// endpoints, live-migrate its serving and warm guests to a surviving
// host of the same platform, and remove it from the ring.
func cmdDrain(ctx context.Context, client *api.Client, args []string) error {
	if len(args) != 1 || args[0] == "" {
		return fmt.Errorf("usage: drain HOST")
	}
	report, err := client.DrainHost(ctx, args[0])
	if err != nil {
		return err
	}
	mode := "live-migrating"
	if report.RoutingOnly {
		mode = "routing-only"
	}
	fmt.Printf("drained:    %s (%s, %s)\n", report.Host, report.TEE, mode)
	fmt.Printf("endpoints:  quiesced %d, removed %d\n", report.Quiesced, report.Removed)
	for _, m := range report.Migrations {
		fmt.Printf("  guest %-16s %-12s downtime %-14v resumes %d  bytes %d\n",
			m.Guest, m.Outcome, time.Duration(m.DowntimeNs), m.Resumes, m.TransferredBytes)
	}
	return nil
}

func cmdAttest(ctx context.Context, client *api.Client, args []string) error {
	fs := flag.NewFlagSet("attest", flag.ContinueOnError)
	teeKind := fs.String("tee", "tdx", "TEE platform (tdx, sev-snp)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	nonce := make([]byte, 64)
	if _, err := rand.Read(nonce); err != nil {
		return err
	}
	resp, err := client.Attest(ctx, api.AttestRequest{TEE: tee.Kind(*teeKind), Nonce: nonce})
	if err != nil {
		return err
	}
	fmt.Printf("evidence:   %d bytes\n", len(resp.Evidence))
	fmt.Printf("attest:     %v\n", time.Duration(resp.AttestNs))
	return nil
}
