package main

import (
	"context"
	"fmt"
	"strings"

	"confbench"
	"confbench/internal/obs"
)

// fronttierReport boots a sharded cluster and drives a seeded
// invocation mix through the front tier — synchronous or, with async,
// through the submit→poll path — then renders the aggregate: routing
// distribution across shards, admission sheds, and total virtual
// wall. Everything reported is virtual time or deterministic
// counters, and the invocations run serially, so the same seed yields
// a bit-identical report.
func fronttierReport(ctx context.Context, seed int64, shards, invokes int, tenant string, async bool, transport string) (string, error) {
	reg := confbench.NewObsRegistry()
	cluster, err := confbench.New(
		confbench.WithSeed(seed),
		confbench.WithGuestMemoryMB(16),
		confbench.WithShards(shards),
		confbench.WithTransport(transport),
		confbench.WithObsRegistry(reg),
	)
	if err != nil {
		return "", err
	}
	defer cluster.Close()

	var opts []confbench.ClientOption
	if tenant != "" {
		opts = append(opts, confbench.WithClientTenant(tenant))
	}
	client, err := confbench.NewClient(cluster.GatewayURL(), opts...)
	if err != nil {
		return "", err
	}

	// Several functions spread the route keys around the ring, so the
	// routing distribution below exercises more than one shard.
	const functions = 6
	names := make([]string, functions)
	for i := range names {
		names[i] = fmt.Sprintf("ft-%d", i)
		fn := confbench.Function{Name: names[i], Language: "go", Workload: "cpustress"}
		if err := client.Upload(ctx, fn); err != nil {
			return "", err
		}
	}

	kinds := cluster.Kinds()
	var ok, failed int
	var totalWallNs int64
	for i := 0; i < invokes; i++ {
		req := confbench.InvokeRequest{
			Function: names[i%functions],
			Secure:   i%2 == 0,
			TEE:      kinds[i%len(kinds)],
			Scale:    1,
		}
		var resp confbench.InvokeResponse
		if async {
			sub, err := client.InvokeAsync(ctx, req)
			if err == nil {
				resp, err = client.AwaitResult(ctx, sub.ID)
			}
			if err != nil {
				failed++
				continue
			}
		} else {
			resp, err = client.Invoke(ctx, req)
			if err != nil {
				failed++
				continue
			}
		}
		ok++
		totalWallNs += resp.WallNs
	}

	mode := "sync"
	if async {
		mode = "async submit→poll"
	}
	if tenant == "" {
		tenant = confbench.TenantDefault
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== Front-tier bench (seed %d, %d shards, %s) ===\n", seed, shards, mode)
	fmt.Fprintf(&b, "tenant: %s   functions: %d   invokes: %d   ok: %d   failed: %d\n",
		tenant, functions, invokes, ok, failed)
	fmt.Fprintf(&b, "total virtual wall: %dns\n", totalWallNs)

	snap := reg.Snapshot()
	fmt.Fprintf(&b, "shard routing:\n")
	for _, name := range cluster.ShardNames() {
		n := snap.Counters[obs.MetricID("confbench_fronttier_invokes_total", "shard", name)]
		fmt.Fprintf(&b, "  %-10s %d\n", name, n)
	}
	var sheds uint64
	for id, v := range snap.Counters {
		if strings.HasPrefix(id, "confbench_fronttier_sheds_total") {
			sheds += v
		}
	}
	fmt.Fprintf(&b, "sheds: %d   failovers: %d   async pending after drain: %d\n",
		sheds,
		snap.Counters[obs.MetricID("confbench_fronttier_failovers_total")],
		snap.Gauges[obs.MetricID("confbench_fronttier_async_pending")])
	return b.String(), nil
}
