package main

import (
	"sync/atomic"

	"confbench/internal/tee"
)

// OpKind names what one generated operation does.
type OpKind uint8

const (
	// OpInvoke is a synchronous invoke.
	OpInvoke OpKind = iota
	// OpAsync is an async submit followed by a long-poll for its
	// result, timed as one operation.
	OpAsync
	// OpObs is a federated cluster telemetry read.
	OpObs
)

func (k OpKind) String() string {
	switch k {
	case OpAsync:
		return "async"
	case OpObs:
		return "obs"
	default:
		return "invoke"
	}
}

// Op is one operation of a workload's op sequence. Fn and Tenant
// index the workload's function and tenant tables.
type Op struct {
	Kind   OpKind
	Fn     int
	Tenant int
	TEE    tee.Kind
	Secure bool
}

// Mix states a workload's traffic mix. Async and obs ops are given
// per mille of all ops; the rest are sync invokes.
type Mix struct {
	AsyncPerMille int
	ObsPerMille   int
	Functions     int
	Tenants       int
}

// combos is every (TEE, secure) target an invoke can name. Each
// consecutive block of len(combos) ops visits all of them once, in a
// seeded order, so every target gets exactly its share.
var combos = []struct {
	kind   tee.Kind
	secure bool
}{
	{tee.KindTDX, true}, {tee.KindTDX, false},
	{tee.KindSEV, true}, {tee.KindSEV, false},
	{tee.KindCCA, true}, {tee.KindCCA, false},
}

// Sequence is the seeded op sequence of one run. Op i is a pure
// function of (seed, mix, i), and every in-flight slot takes the next
// index from one shared counter, so the ops served are exactly the
// first n ops of the sequence, whichever slot happens to be fast.
type Sequence struct {
	seed uint64
	mix  Mix
	next atomic.Int64
}

// NewSequence returns the op sequence for seed and mix.
func NewSequence(seed int64, mix Mix) *Sequence {
	if mix.Functions < 1 {
		mix.Functions = 1
	}
	if mix.Tenants < 1 {
		mix.Tenants = 1
	}
	return &Sequence{seed: uint64(seed), mix: mix}
}

// Next claims the next op index and returns it with its op.
func (s *Sequence) Next() (int64, Op) {
	i := s.next.Add(1) - 1
	return i, s.At(i)
}

// At returns op i without claiming it.
func (s *Sequence) At(i int64) Op {
	u := uint64(i)
	op := Op{Kind: OpInvoke}
	switch r := int(s.draw(u, 1) % 1000); {
	case r < s.mix.AsyncPerMille:
		op.Kind = OpAsync
	case r < s.mix.AsyncPerMille+s.mix.ObsPerMille:
		op.Kind = OpObs
	}
	op.Fn = int(s.draw(u, 2) % uint64(s.mix.Functions))
	op.Tenant = int(s.draw(u, 3) % uint64(s.mix.Tenants))
	c := combos[s.blockPerm(u / uint64(len(combos)))[u%uint64(len(combos))]]
	op.TEE, op.Secure = c.kind, c.secure
	return op
}

// blockPerm is the seeded order in which block b visits the combos.
func (s *Sequence) blockPerm(b uint64) [6]int {
	p := [6]int{0, 1, 2, 3, 4, 5}
	for j := len(p) - 1; j > 0; j-- {
		k := int(s.draw(b, uint64(10+j)) % uint64(j+1))
		p[j], p[k] = p[k], p[j]
	}
	return p
}

// draw is an independent 64-bit value per (seed, index, stream).
func (s *Sequence) draw(i, stream uint64) uint64 {
	return splitmix64(s.seed ^ splitmix64(i^splitmix64(stream)))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
