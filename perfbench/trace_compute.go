package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"confbench/internal/faas"
	"confbench/internal/faas/langs"
	"confbench/internal/meter"
	"confbench/internal/minidb"
	"confbench/internal/mlinfer"
	"confbench/internal/tee"
	"confbench/internal/unixbench"
	"confbench/internal/workloads"
)

// computeReps is how many times each compute-layer measurement
// repeats; the median is reported.
const computeReps = 3

// quickScale is a catalog workload's scale under the quick protocol.
func quickScale(w workloads.Workload) int {
	if s := w.DefaultScale / figScaleDiv; s > 0 {
		return s
	}
	return 1
}

// costOf runs f and returns its wall time and the bytes and objects
// the process allocated meanwhile.
func costOf(f func() error) (time.Duration, uint64, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return d, m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs, err
}

// repeated runs f computeReps times inside spans named name and
// returns the median wall time, bytes and objects allocated.
func repeated(tr *tracer, name string, f func() error) (wall time.Duration, bytes, objects float64, err error) {
	var ws, bs, os []float64
	for k := 0; k < computeReps; k++ {
		var d time.Duration
		var b, o uint64
		root := tr.begin(name, 0, int64(k))
		d, b, o, err = costOf(f)
		tr.end(root)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("%s: %w", name, err)
		}
		ws, bs, os = append(ws, float64(d)), append(bs, float64(b)), append(os, float64(o))
	}
	return time.Duration(median(ws)), median(bs), median(os), nil
}

// traceCompute times the layers below the network: the VM's function
// execution per language, TEE pricing per platform, the workload
// catalog per kind, and the classic-workload engines.
func traceCompute(ctx context.Context, res *result, tr *tracer) error {
	c, err := bootFigures()
	if err != nil {
		return err
	}
	defer c.Close()
	cat := c.Catalog()
	names := cat.Names()

	// vm + faas/langs: the whole catalog at quick scale, per language,
	// on the TDX confidential VM.
	pair, err := c.Pair(tee.KindTDX)
	if err != nil {
		return err
	}
	var usage meter.Usage
	for _, lang := range langs.Names() {
		wall, _, _, err := repeated(tr, "vm."+lang, func() error {
			for _, name := range names {
				w, err := cat.Lookup(name)
				if err != nil {
					return err
				}
				fn := faas.Function{Name: name + "-" + lang, Language: lang, Workload: name}
				out, err := pair.Secure.InvokeFunction(ctx, fn, quickScale(w))
				if err != nil {
					return err
				}
				if out.Output == "" || out.Platform != tee.KindTDX || !out.Secure {
					return fmt.Errorf("%s: unexpected result %q on %s", fn.Name, out.Output, out.Platform)
				}
				if name == "cpustress" {
					usage = out.Usage
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		tally(res, nil)
		res.set("vm."+lang+".invoke_us", us(wall)/float64(len(names)), "us", computeReps*len(names))
	}

	// tee: pricing one cpustress run's usage, per platform.
	const pricings = 2000
	for _, kind := range c.Kinds() {
		p, err := c.Pair(kind)
		if err != nil {
			return err
		}
		wall, _, _, err := repeated(tr, "tee."+string(kind), func() error {
			for i := 0; i < pricings; i++ {
				if p.Secure.PriceUsage(usage) <= 0 {
					return errors.New("non-positive price")
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		tally(res, nil)
		res.set("tee."+string(kind)+".price_us", us(wall)/pricings, "us", computeReps*pricings)
	}

	// workloads: every catalog entry of a kind at quick scale, under a
	// fresh meter per run.
	for _, kind := range []workloads.Kind{workloads.KindCPU, workloads.KindMemory, workloads.KindIO, workloads.KindMixed} {
		wall, bytes, _, err := repeated(tr, "workloads."+string(kind), func() error {
			for _, name := range names {
				w, err := cat.Lookup(name)
				if err != nil {
					return err
				}
				if w.Kind != kind {
					continue
				}
				if _, err := w.Run(meter.NewContext(), quickScale(w)); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		tally(res, nil)
		res.set("workloads."+string(kind)+".run_us", us(wall), "us", computeReps)
		res.set("workloads."+string(kind)+".alloc_kb", bytes/1024, "KiB", computeReps)
	}

	// Classic-workload engines at the quick protocol's sizes.
	model, err := mlinfer.NewMobileNet(mlinfer.MobileNetConfig{})
	if err != nil {
		return err
	}
	image := mlinfer.Dataset(1)[0]
	engines := []struct {
		name, metric string
		run          func() error
	}{
		{"mlinfer", "mlinfer.classify", func() error {
			m := meter.NewContext()
			img, err := mlinfer.DecodeAndResize(m, image, 96)
			if err != nil {
				return err
			}
			preds, err := model.Classify(m, img, 1)
			if err == nil && len(preds) != 1 {
				err = fmt.Errorf("%d predictions, want 1", len(preds))
			}
			return err
		}},
		{"minidb", "minidb.speedtest", func() error {
			_, err := minidb.NewSpeedTest(figDBSize).Run(meter.NewContext())
			return err
		}},
		{"unixbench", "unixbench.suite", func() error {
			r, err := unixbench.New(unixbench.Options{Scale: 1.0 / figScaleDiv}).Run(meter.NewContext(), pair.Secure.PriceUsage)
			if err == nil && !(r.Index > 0) {
				err = fmt.Errorf("index %v", r.Index)
			}
			return err
		}},
	}
	for _, e := range engines {
		wall, _, objects, err := repeated(tr, e.name, e.run)
		if err != nil {
			return err
		}
		tally(res, nil)
		res.set(e.metric+"_ms", ms(wall), "ms", computeReps)
		res.set(e.metric+"_allocs", objects, "count", computeReps)
	}
	return nil
}

// traceFigures runs the figure protocol once with a span and an
// allocation reading around each figure.
func traceFigures(ctx context.Context, res *result, tr *tracer) error {
	c, err := bootFigures()
	if err != nil {
		return err
	}
	defer c.Close()
	root := tr.begin("figures", 0, 0)
	run, err := runProtocolOnce(ctx, c, func(name string, wall time.Duration, allocBytes uint64) {
		tr.endedNow("bench."+name, root, 0, wall)
		res.set("bench."+name+".s", wall.Seconds(), "s", 1)
		res.set("bench."+name+".alloc_mb", float64(allocBytes)/(1<<20), "MiB", 1)
	})
	tr.end(root)
	if err != nil {
		return err
	}
	for _, e := range run.errs {
		res.fail("figures: %v", e)
	}
	if len(run.errs) == 0 {
		tally(res, nil)
	}
	fmt.Printf("figures_sha256 %s\n", run.digest)
	return nil
}
