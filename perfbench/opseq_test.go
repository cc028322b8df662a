package main

import (
	"math"
	"sync"
	"testing"
)

func TestSequenceSameSeedSameOps(t *testing.T) {
	a, b := NewSequence(7, edgeMix), NewSequence(7, edgeMix)
	other := NewSequence(8, edgeMix)
	differ := 0
	for i := int64(0); i < 5000; i++ {
		_, opA := a.Next()
		_, opB := b.Next()
		if opA != opB {
			t.Fatalf("op %d: %+v vs %+v under one seed", i, opA, opB)
		}
		if opA != other.At(i) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("seeds 7 and 8 generated the same sequence")
	}
}

// Slots that draw concurrently must serve exactly the sequence's
// first n ops, however the draws interleave.
func TestSequenceSharedAcrossSlots(t *testing.T) {
	const perSlot = 2000
	seq := NewSequence(3, edgeMix)
	got := make([][]int64, slots)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perSlot; k++ {
				i, op := seq.Next()
				if op != seq.At(i) {
					t.Errorf("Next returned op %+v for index %d, At says %+v", op, i, seq.At(i))
				}
				got[w] = append(got[w], i)
			}
		}(w)
	}
	wg.Wait()
	seen := make([]bool, slots*perSlot)
	for _, idx := range got {
		for _, i := range idx {
			if i < 0 || int(i) >= len(seen) || seen[i] {
				t.Fatalf("index %d served twice or out of range", i)
			}
			seen[i] = true
		}
	}
}

func TestSequenceMatchesStatedMix(t *testing.T) {
	const n = 120_000
	seq := NewSequence(42, edgeMix)
	kinds := map[OpKind]int{}
	fns := make([]int, edgeMix.Functions)
	tenants := make([]int, edgeMix.Tenants)
	targets := map[Op]int{}
	for i := int64(0); i < n; i++ {
		op := seq.At(i)
		kinds[op.Kind]++
		fns[op.Fn]++
		tenants[op.Tenant]++
		targets[Op{TEE: op.TEE, Secure: op.Secure}]++
	}
	near := func(what string, got int, want float64) {
		t.Helper()
		share := float64(got) / n
		// Four standard errors of a binomial share.
		if tol := 4 * math.Sqrt(want*(1-want)/n); math.Abs(share-want) > tol {
			t.Errorf("%s share %.4f, want %.4f ± %.4f", what, share, want, tol)
		}
	}
	near("async", kinds[OpAsync], 0.12)
	near("obs", kinds[OpObs], 0.03)
	near("invoke", kinds[OpInvoke], 0.85)
	for f, c := range fns {
		near("function "+string(rune('0'+f)), c, 1.0/float64(edgeMix.Functions))
	}
	for tn, c := range tenants {
		near("tenant "+string(rune('0'+tn)), c, 1.0/float64(edgeMix.Tenants))
	}
	if len(targets) != len(combos) {
		t.Fatalf("%d (TEE, secure) targets, want %d", len(targets), len(combos))
	}
	for target, c := range targets {
		if c != n/len(combos) {
			t.Errorf("target %s/%v served %d times, want exactly %d", target.TEE, target.Secure, c, n/len(combos))
		}
	}
}

// invoke-tiny cycles through every target in each block of six ops.
func TestSequenceCyclesTargets(t *testing.T) {
	seq := NewSequence(1, tinyMix)
	for b := int64(0); b < 100; b++ {
		seen := map[Op]bool{}
		for k := int64(0); k < int64(len(combos)); k++ {
			op := seq.At(b*int64(len(combos)) + k)
			if op.Kind != OpInvoke || op.Fn != 0 || op.Tenant != 0 {
				t.Fatalf("invoke-tiny op %+v", op)
			}
			seen[Op{TEE: op.TEE, Secure: op.Secure}] = true
		}
		if len(seen) != len(combos) {
			t.Fatalf("block %d visits %d targets, want %d", b, len(seen), len(combos))
		}
	}
}
