// Command perfbench is ConfBench's repository benchmark. It runs one
// seeded workload in-process against the public Go API and prints
// every end-to-end metric, or with -trace 1 the per-layer metrics of
// an outside-in trace, ending with one JSON result line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	invoke-tiny    closed loop, 2 in flight, fib@5 over the binary hop path
//	edge-mixed     open loop at a fixed rate through 2 shards behind the front tier
//	paper-figures  the confbench-bench -quick figure protocol through internal/bench
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload invoke-tiny --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

// set records a metric and prints it with its sample count.
func (r *result) set(name string, value float64, unit string, n int) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
	fmt.Printf("  %-34s %14.6g %-6s (n=%d)\n", name, value, unit, n)
}

// note prints a reported quantity that is not part of the JSON line.
func note(name string, value float64, unit string, n int) {
	fmt.Printf("  %-34s %14.6g %-6s (n=%d)\n", name, value, unit, n)
}

// count adds ops to the attempted/failed tally.
func (r *result) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
	if failed > 0 {
		r.Correct = false
	}
}

// fail records a failed check.
func (r *result) fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	r.count(1, 1)
}

// runTimeout stops a run that would overrun the harness's limit.
const runTimeout = 170 * time.Second

var workloadRunners = map[string]func(ctx context.Context, seed int64, d time.Duration) (*result, error){
	"invoke-tiny":   runInvokeTiny,
	"edge-mixed":    runEdgeMixed,
	"paper-figures": runPaperFigures,
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: invoke-tiny, edge-mixed or paper-figures")
	seed := fs.Int64("seed", 1, "seed the op sequence and deployment derive from")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = report per-layer metrics from the outside-in trace instead")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloadRunners[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloadRunners))
		for n := range workloadRunners {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %v, -seconds >= 1, -trace 0|1\n", names)
		return 2
	}
	fp, err := json.Marshal(machineFingerprint())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("fingerprint %s\n", fp)
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", *workload, *seed, *seconds, *trace)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	d := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = runTrace(ctx, *workload, *seed, d)
	} else {
		res, err = runner(ctx, *seed, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}
