package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"time"

	"confbench"
	"confbench/internal/bench"
	"confbench/internal/tee"
)

// The confbench-bench -quick protocol. Its seed is part of the
// protocol, so every run reproduces the same modeled figure values
// and the digest over them is comparable across runs and seeds.
const (
	figSeed     = 1
	figTrials   = 3
	figScaleDiv = 8
	figDBSize   = 20
	figImages   = 10
)

// figureNames are the protocol's figures in the order it runs them.
var figureNames = []string{"fig3", "dbms", "fig4", "fig5", "fig6", "fig7", "fig8", "colocation"}

// figHook, when set, is told each figure's wall time and bytes
// allocated. Untraced runs pass nil and take no readings between
// figures.
type figHook func(name string, wall time.Duration, allocBytes uint64)

// modeled is every simulated figure value: everything the protocol
// produces except Fig. 5, whose attestation latencies are wall-clock
// timings of this machine.
type modeled struct {
	ML         []bench.MLResult
	DBMS       []bench.DBMSResult
	UnixBench  []bench.UnixBenchResult
	FaaS       []bench.FaaSResult // Fig. 6 (TDX, SEV) then Fig. 7 (CCA)
	Fig8       bench.FaaSResult
	CoLocation []bench.CoLocationResult
}

func bootFigures() (*confbench.Cluster, error) {
	c, err := confbench.New(confbench.WithSeed(figSeed), confbench.WithGuestMemoryMB(16))
	if err != nil {
		return nil, fmt.Errorf("boot paper-figures deployment: %w", err)
	}
	return c, nil
}

// figureProtocol runs the quick protocol once on c, rendering every
// figure as the CLI does, and returns the modeled values.
func figureProtocol(ctx context.Context, c *confbench.Cluster, hook figHook) (modeled, error) {
	var m modeled
	opts := bench.Options{Trials: figTrials, ScaleDivisor: figScaleDiv, Obs: c.Obs()}
	step := func(name string, f func() error) error {
		var before runtime.MemStats
		if hook != nil {
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if hook != nil {
			wall := time.Since(t0)
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			hook(name, wall, after.TotalAlloc-before.TotalAlloc)
		}
		return nil
	}
	pairs := func(f func(k tee.Kind) error) error {
		for _, k := range c.Kinds() {
			if err := f(k); err != nil {
				return err
			}
		}
		return nil
	}
	faas := func(k tee.Kind, fo bench.FaaSOptions) (bench.FaaSResult, error) {
		pair, err := c.Pair(k)
		if err != nil {
			return bench.FaaSResult{}, err
		}
		return bench.FaaS(ctx, pair, c.Catalog(), fo)
	}
	steps := []func() error{
		func() error { // Fig. 3
			err := pairs(func(k tee.Kind) error {
				pair, err := c.Pair(k)
				if err != nil {
					return err
				}
				res, err := bench.ML(ctx, pair, bench.MLOptions{Images: figImages, Obs: c.Obs()})
				m.ML = append(m.ML, res)
				return err
			})
			_ = bench.RenderML(m.ML)
			return err
		},
		func() error { // DBMS
			err := pairs(func(k tee.Kind) error {
				pair, err := c.Pair(k)
				if err != nil {
					return err
				}
				res, err := bench.DBMS(ctx, pair, bench.DBMSOptions{Size: figDBSize})
				m.DBMS = append(m.DBMS, res)
				return err
			})
			_ = bench.RenderDBMS(m.DBMS)
			return err
		},
		func() error { // Fig. 4
			err := pairs(func(k tee.Kind) error {
				pair, err := c.Pair(k)
				if err != nil {
					return err
				}
				res, err := bench.UnixBench(ctx, pair, bench.UnixBenchOptions{Scale: 1.0 / figScaleDiv})
				m.UnixBench = append(m.UnixBench, res)
				return err
			})
			_ = bench.RenderUnixBench(m.UnixBench)
			return err
		},
		func() error { // Fig. 5
			ta, tv, err := c.TDXAttestation()
			if err != nil {
				return err
			}
			tdx, err := bench.Attestation(ctx, tee.KindTDX, ta, tv, figTrials)
			if err != nil {
				return err
			}
			sa, sv, err := c.SEVAttestation()
			if err != nil {
				return err
			}
			sev, err := bench.Attestation(ctx, tee.KindSEV, sa, sv, figTrials)
			if err != nil {
				return err
			}
			_ = bench.RenderAttestation([]bench.AttestationResult{tdx, sev})
			return nil
		},
		func() error { // Fig. 6
			for _, k := range bench.KindsTDXSEV {
				res, err := faas(k, bench.FaaSOptions{Options: opts})
				if err != nil {
					return err
				}
				m.FaaS = append(m.FaaS, res)
				_ = bench.RenderHeatmap(res)
			}
			return nil
		},
		func() error { // Fig. 7
			res, err := faas(tee.KindCCA, bench.FaaSOptions{Options: opts})
			if err != nil {
				return err
			}
			m.FaaS = append(m.FaaS, res)
			_ = bench.RenderHeatmap(res)
			return nil
		},
		func() error { // Fig. 8
			res, err := faas(tee.KindCCA, bench.FaaSOptions{
				Options:   bench.Options{Trials: 10, ScaleDivisor: figScaleDiv},
				Workloads: []string{"cpustress", "memstress", "iostress", "logging", "factors", "filesystem"},
			})
			if err != nil {
				return err
			}
			m.Fig8 = res
			for _, lang := range res.Languages {
				if _, err := bench.RenderBoxPlots(res, lang); err != nil {
					return err
				}
			}
			return nil
		},
		func() error { // co-location
			return pairs(func(k tee.Kind) error {
				backend, err := c.Backend(k)
				if err != nil {
					return err
				}
				res, err := bench.CoLocation(ctx, backend, c.Catalog(), bench.CoLocationOptions{Tenants: 4, Trials: figTrials})
				m.CoLocation = append(m.CoLocation, res)
				_ = bench.RenderCoLocation(res)
				return err
			})
		},
	}
	for i, s := range steps {
		if err := step(figureNames[i], s); err != nil {
			return modeled{}, err
		}
	}
	return m, nil
}

// baselineJSON is baseline.json, whose figures_sha256 is the digest
// every protocol run must reproduce.
//
//go:embed baseline.json
var baselineJSON []byte

// baselineDigest is the figure digest recorded in baseline.json.
func baselineDigest() (string, error) {
	var b struct {
		FiguresSHA256 string `json:"figures_sha256"`
	}
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return "", fmt.Errorf("baseline.json: %w", err)
	}
	if b.FiguresSHA256 == "" {
		return "", errors.New("baseline.json: no figures_sha256")
	}
	return b.FiguresSHA256, nil
}

// digest is the SHA-256 of the modeled values' JSON encoding.
func (m modeled) digest() (string, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("encode figure values: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// shapeErrors checks the DESIGN.md §4 shape invariants at the quick
// protocol and returns one error per violated invariant.
func (m modeled) shapeErrors() []error {
	var errs []error
	dbms := map[tee.Kind]float64{}
	for _, r := range m.DBMS {
		dbms[r.Kind] = r.AvgRatio
	}
	if !(dbms[tee.KindTDX] < 1.5 && dbms[tee.KindSEV] < 1.5) {
		errs = append(errs, fmt.Errorf("DBMS avg ratio TDX %.3f, SEV %.3f: want both < 1.5", dbms[tee.KindTDX], dbms[tee.KindSEV]))
	}
	if !(dbms[tee.KindCCA] > 5) {
		errs = append(errs, fmt.Errorf("DBMS avg ratio CCA %.3f: want > 5", dbms[tee.KindCCA]))
	}
	ub := map[tee.Kind]float64{}
	for _, r := range m.UnixBench {
		ub[r.Kind] = r.TimeRatio
	}
	if !(ub[tee.KindTDX] <= ub[tee.KindSEV] && ub[tee.KindSEV] < ub[tee.KindCCA]) {
		errs = append(errs, fmt.Errorf("UnixBench ratios TDX %.3f, SEV %.3f, CCA %.3f: want TDX <= SEV < CCA",
			ub[tee.KindTDX], ub[tee.KindSEV], ub[tee.KindCCA]))
	}
	mean := map[tee.Kind]float64{}
	below := 0
	for _, r := range m.FaaS {
		mean[r.Kind] = r.MeanRatio()
		if r.Kind != tee.KindCCA {
			below += r.CellsBelowOne()
		}
	}
	if len(mean) != 3 || !(mean[tee.KindCCA] > mean[tee.KindTDX] && mean[tee.KindCCA] > mean[tee.KindSEV]) {
		errs = append(errs, fmt.Errorf("FaaS mean ratios TDX %.3f, SEV %.3f, CCA %.3f: want CCA above both",
			mean[tee.KindTDX], mean[tee.KindSEV], mean[tee.KindCCA]))
	}
	if below == 0 {
		errs = append(errs, errors.New("no TDX/SEV FaaS cell below 1"))
	}
	return errs
}

// figureRun is one protocol run's outcome.
type figureRun struct {
	wall   time.Duration
	digest string
	errs   []error
}

// runProtocolOnce runs the protocol on c and checks its output: the
// shape invariants, and the digest against baseline.json's, so a
// change that moves a modeled figure value fails the run.
func runProtocolOnce(ctx context.Context, c *confbench.Cluster, hook figHook) (figureRun, error) {
	want, err := baselineDigest()
	if err != nil {
		return figureRun{}, err
	}
	t0 := time.Now()
	m, err := figureProtocol(ctx, c, hook)
	if err != nil {
		return figureRun{}, err
	}
	run := figureRun{wall: time.Since(t0), errs: m.shapeErrors()}
	if run.digest, err = m.digest(); err != nil {
		return figureRun{}, err
	}
	if run.digest != want {
		run.errs = append(run.errs, fmt.Errorf("figure digest %s, baseline.json records %s", run.digest, want))
	}
	return run, nil
}

func runPaperFigures(ctx context.Context, _ int64, d time.Duration) (*result, error) {
	// Set-up is a deployment boot; each protocol run gets a fresh one
	// so the modeled values, and their digest, never depend on what
	// ran before in the process.
	var setups []float64
	boot := func() (*confbench.Cluster, error) {
		t0 := time.Now()
		c, err := bootFigures()
		if err == nil {
			setups = append(setups, time.Since(t0).Seconds())
		}
		return c, err
	}
	for len(setups) < setupRuns-1 {
		c, err := boot()
		if err != nil {
			return nil, err
		}
		if err := c.Close(); err != nil {
			return nil, err
		}
	}
	res := newResult()
	var walls []float64
	var cost procSample
	var digest string
	var peaks []float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start) < d {
		c, err := boot()
		if err != nil {
			return nil, err
		}
		// Each protocol's peak RSS is read on its own: the process
		// peak would be the largest of several GC-timing-dependent
		// peaks, and grow with the number of protocols a run fits.
		if err := resetPeakRSS(); err != nil {
			_ = c.Close()
			return nil, err
		}
		before, err := readProc()
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		run, err := runProtocolOnce(ctx, c, nil)
		if err != nil {
			_ = c.Close()
			return nil, err
		}
		after, err := readProc()
		var peak float64
		if err == nil {
			peak, err = peakRSSMB()
		}
		if cerr := c.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		delta := after.sub(before)
		cost.CPU += delta.CPU
		cost.TotalAlloc += delta.TotalAlloc
		cost.Mallocs += delta.Mallocs
		cost.Syscalls += delta.Syscalls
		walls = append(walls, run.wall.Seconds())
		peaks = append(peaks, peak)
		digest = run.digest
		for _, e := range run.errs {
			fmt.Println("figure check failed:", e)
		}
		failed := 0
		if len(run.errs) > 0 {
			failed = 1
		}
		res.count(1, failed)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	n := float64(len(walls))
	var total float64
	for _, w := range walls {
		total += w
	}
	wall := summarize(append([]float64(nil), walls...))
	fmt.Printf("figures_sha256 %s\n", digest)
	res.set("setup_s", median(append([]float64(nil), setups...)), "s", len(setups))
	res.set("throughput_ops_s", n/total, "1/s", len(walls))
	res.set("latency_p50_ms", wall.P50*1000, "ms", wall.N)
	note("latency_p99_ms", wall.P99*1000, "ms", wall.N)
	res.set("cpu_us_per_op", us(cost.CPU)/n, "us", len(walls))
	res.set("alloc_kb_per_op", float64(cost.TotalAlloc)/1024/n, "KiB", len(walls))
	note("syscalls_per_op", float64(cost.Syscalls)/n, "count", len(walls))
	res.set("max_rss_mb", median(peaks), "MiB", len(peaks))
	note("figures_s", wall.P50, "s", wall.N)
	note("figures_cpu_s", cost.CPU.Seconds()/n, "s", len(walls))
	note("figures_alloc_mb", float64(cost.TotalAlloc)/(1<<20)/n, "MiB", len(walls))
	note("fail_ratio", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)
	return res, nil
}
