package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Dist summarizes one sample: the median, the p99, and the highest
// percentile of a fixed ladder that has at least ten samples beyond
// it — the tail the sample actually supports.
type Dist struct {
	N     int
	P50   float64
	P99   float64
	TailQ float64
	Tail  float64
}

// tailLadder is tried from the top; the first rung with ten samples
// beyond it is the reported tail.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// supportedTail returns the highest ladder quantile that leaves at
// least ten of n samples above it, or 0.5 when none does.
func supportedTail(n int) float64 {
	for _, q := range tailLadder {
		if n-rank(q, n) >= 10 {
			return q
		}
	}
	return 0.5
}

// rank is the 1-based nearest-rank position of the q-quantile among n
// samples. The epsilon keeps q·n from rounding up past a whole rank.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// quantile returns the nearest-rank q-quantile of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(q, len(sorted))-1]
}

// summarize sorts xs in place and summarizes it.
func summarize(xs []float64) Dist {
	sort.Float64s(xs)
	q := supportedTail(len(xs))
	return Dist{N: len(xs), P50: quantile(xs, 0.5), P99: quantile(xs, 0.99), TailQ: q, Tail: quantile(xs, q)}
}

// median of xs (sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// Latency histograms: log-spaced buckets 0.5% apart from 100 ns to
// 100 s. A load loop keeps its samples in a few of these instead of
// one value per op, so the benchmark's own memory does not grow with
// throughput and show up in max_rss_mb.
const (
	histMinMs   = 1e-4
	histGrowth  = 0.005
	histBuckets = 4160 // ln(1e5/histMinMs) / ln(1+histGrowth) ≈ 4155
)

var histLogGrowth = math.Log1p(histGrowth)

// hist is a latency histogram in milliseconds.
type hist struct {
	counts []uint32
	n      int
}

func (h *hist) add(v float64) {
	if h.counts == nil {
		h.counts = make([]uint32, histBuckets)
	}
	b := 0
	if v > histMinMs {
		b = int(math.Log(v/histMinMs)/histLogGrowth) + 1
		if b >= histBuckets {
			b = histBuckets - 1
		}
	}
	h.counts[b]++
	h.n++
}

func (h *hist) merge(o *hist) {
	if o.n == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint32, histBuckets)
	}
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
}

// quantile returns the upper edge of the bucket holding the
// nearest-rank q-quantile: at most 0.5% above the sampled value.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	r, cum := rank(q, h.n), 0
	for b, c := range h.counts {
		if cum += int(c); cum >= r {
			return histMinMs * math.Exp(float64(b)*histLogGrowth)
		}
	}
	return math.NaN() // unreachable: the counts sum to n
}

// dist summarizes the histogram as summarize does a sample.
func (h *hist) dist() Dist {
	q := supportedTail(h.n)
	return Dist{N: h.n, P50: h.quantile(0.5), P99: h.quantile(0.99), TailQ: q, Tail: h.quantile(q)}
}

// loopResult is what a load loop measured, in fixed memory: latency
// and generator lag over the run, and latency per op kind.
type loopResult struct {
	Lat, Lag  hist
	ByKind    [OpObs + 1]hist
	Attempted int
	Failed    int
	Elapsed   time.Duration
}

// record files one op: its latency and lag in ms, and whether its
// checks failed.
func (r *loopResult) record(kind OpKind, latMs, lagMs float64, err error) {
	r.Lat.add(latMs)
	r.Lag.add(lagMs)
	r.ByKind[kind].add(latMs)
	r.Attempted++
	if err != nil {
		r.Failed++
	}
}

// opFunc runs op i of the shared sequence and reports whether its
// output passed the checks.
type opFunc func(ctx context.Context, i int64) error

// closedLoop keeps slots ops of seq in flight from start until d
// elapses: each slot sends the sequence's next op as soon as its
// previous op completes. Latency is measured from send.
func closedLoop(ctx context.Context, start time.Time, slots int, d time.Duration, seq *Sequence, do opFunc) loopResult {
	deadline := start.Add(d)
	per := make([]loopResult, slots)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(r *loopResult) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i, op := seq.Next()
				t0 := time.Now()
				err := do(ctx, i)
				r.record(op.Kind, ms(time.Since(t0)), 0, err)
			}
		}(&per[w])
	}
	wg.Wait()
	return merge(per, time.Since(start))
}

// openLoop sends op i of seq when it falls due at start + i·interval,
// until the next op would fall due after d, with at most slots ops in
// flight. Latency is measured from each op's due time, not from when
// a slot got round to sending it, so a stall shows up in every op
// queued behind it instead of being hidden (coordinated omission).
// Lag is how late each op was sent.
func openLoop(ctx context.Context, start time.Time, slots int, interval, d time.Duration, seq *Sequence, do opFunc) loopResult {
	var next atomic.Int64
	per := make([]loopResult, slots)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(r *loopResult) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				offset := time.Duration(i) * interval
				if offset >= d {
					return
				}
				due := start.Add(offset)
				sleepUntil(due)
				lag := ms(time.Since(due))
				err := do(ctx, i)
				r.record(seq.At(i).Kind, ms(time.Since(due)), lag, err)
			}
		}(&per[w])
	}
	wg.Wait()
	return merge(per, time.Since(start))
}

// sleepUntil blocks the calling goroutine's thread in nanosleep until
// t. time.Sleep would round the wait up to the runtime netpoller's
// millisecond timeout whenever the process is idle, making the
// generator itself up to a millisecond late on every op.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

func merge(per []loopResult, elapsed time.Duration) loopResult {
	out := loopResult{Elapsed: elapsed}
	for i := range per {
		r := &per[i]
		out.Lat.merge(&r.Lat)
		out.Lag.merge(&r.Lag)
		for k := range r.ByKind {
			out.ByKind[k].merge(&r.ByKind[k])
		}
		out.Attempted += r.Attempted
		out.Failed += r.Failed
	}
	return out
}
