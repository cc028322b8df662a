package main

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 0.5}, {19, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {1 << 20, 0.999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	d := summarize(xs)
	if d.N != 1000 || d.P50 != 500 || d.P99 != 990 || d.TailQ != 0.99 || d.Tail != 990 {
		t.Fatalf("summarize = %+v", d)
	}
	if one := summarize([]float64{7}); one.P50 != 7 || one.P99 != 7 || one.TailQ != 0.5 {
		t.Fatalf("summarize of one sample = %+v", one)
	}
}

func TestHistQuantileWithinResolution(t *testing.T) {
	var h hist
	for v := 1000; v >= 1; v-- {
		h.add(float64(v))
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}, {1, 1000}} {
		if got := h.quantile(c.q); got < c.want || got > c.want*(1+histGrowth) {
			t.Errorf("quantile(%g) = %g, want %g within %g%%", c.q, got, c.want, histGrowth*100)
		}
	}
	if d := h.dist(); d.N != 1000 || d.TailQ != 0.99 {
		t.Errorf("dist = %+v", d)
	}
	var tiny hist
	tiny.add(0)
	tiny.add(1e9)
	if lo, hi := tiny.quantile(0.5), tiny.quantile(1); lo != histMinMs || hi < 1e5 {
		t.Errorf("out-of-range values land in %g and %g, want the end buckets", lo, hi)
	}
}

// One stalled op must inflate the latency of every op queued behind
// it: open-loop latency runs from the due time, so the wait the stall
// imposes is counted instead of omitted.
func TestOpenLoopCountsQueueingBehindAStall(t *testing.T) {
	const (
		interval = time.Millisecond
		stall    = 60 * time.Millisecond
		stalled  = 5
		ops      = 30
	)
	var calls atomic.Int64
	lr := openLoop(context.Background(), time.Now(), 1, interval, ops*interval, NewSequence(1, tinyMix),
		func(_ context.Context, i int64) error {
			calls.Add(1)
			if i == stalled {
				time.Sleep(stall)
			}
			return nil
		})
	if lr.Attempted != ops || calls.Load() != ops {
		t.Fatalf("attempted %d ops (%d calls), want %d", lr.Attempted, calls.Load(), ops)
	}
	// The 24 ops due after the stalled one could not start before the
	// stall ended, 36 to 59 ms after they were due; their own service
	// time is near zero, so measured from send they would look fast.
	floor := float64(stall-(ops-stalled-1)*interval) / 1e6
	queued := float64(ops-stalled-1) / ops
	for _, c := range []struct {
		name string
		h    *hist
	}{{"latency", &lr.Lat}, {"lag", &lr.Lag}} {
		if got := c.h.quantile(1 - queued + 0.01); got < floor {
			t.Errorf("%s of the ops queued behind the stall = %.2f ms, want >= %.2f ms", c.name, got, floor)
		}
	}
}

func TestClosedLoopKeepsSlotsBusyUntilDeadline(t *testing.T) {
	var inFlight, peak atomic.Int64
	lr := closedLoop(context.Background(), time.Now(), slots, 50*time.Millisecond, NewSequence(1, tinyMix),
		func(_ context.Context, i int64) error {
			n := inFlight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			return nil
		})
	if peak.Load() > slots {
		t.Fatalf("%d ops in flight, want at most %d", peak.Load(), slots)
	}
	if lr.Attempted < 10 || lr.Failed != 0 || lr.Lat.n != lr.Attempted || lr.ByKind[OpInvoke].n != lr.Attempted {
		t.Fatalf("closed loop: %d attempted, %d failed, %d latencies", lr.Attempted, lr.Failed, lr.Lat.n)
	}
}
