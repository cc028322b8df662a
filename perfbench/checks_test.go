package main

import (
	"strings"
	"testing"
	"time"

	"confbench"
	"confbench/internal/tee"
)

func TestCheckRejectsMismatchedResponses(t *testing.T) {
	f := benchFunc{fn: confbench.Function{Name: "fib-go"}, scale: 5, want: "5"}
	good := confbench.InvokeResponse{Output: "5", Secure: true, Platform: tee.KindSEV, Host: "sev-snp-host-0"}
	if err := f.check(good, tee.KindSEV, true); err != nil {
		t.Fatalf("matching secure response rejected: %v", err)
	}
	normal := confbench.InvokeResponse{Output: "5", Platform: tee.KindNone, Host: "cca-host-0"}
	if err := f.check(normal, tee.KindCCA, false); err != nil {
		t.Fatalf("matching normal response rejected: %v", err)
	}
	for name, resp := range map[string]confbench.InvokeResponse{
		"output":   {Output: "8", Secure: true, Platform: tee.KindSEV, Host: "sev-snp-host-0"},
		"platform": {Output: "5", Secure: true, Platform: tee.KindTDX, Host: "sev-snp-host-0"},
		"host":     {Output: "5", Secure: true, Platform: tee.KindSEV, Host: "tdx-host-0"},
		"secure":   {Output: "5", Secure: false, Platform: tee.KindSEV, Host: "sev-snp-host-0"},
	} {
		if f.check(resp, tee.KindSEV, true) == nil {
			t.Errorf("response with wrong %s accepted: %+v", name, resp)
		}
	}
}

func TestMonotonicViolationsIgnoresOverlappingReads(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }
	reads := []obsRead{
		{start: at(0), end: at(10), invokes: 100},
		{start: at(5), end: at(8), invokes: 90},    // overlaps the first: either order is possible
		{start: at(20), end: at(30), invokes: 120}, // after both
	}
	if bad := monotonicViolations(reads); bad != 0 {
		t.Fatalf("%d violations among consistent reads", bad)
	}
	reads = append(reads, obsRead{start: at(40), end: at(50), invokes: 110})
	if bad := monotonicViolations(reads); bad != 1 {
		t.Fatalf("%d violations, want 1 for a read below an earlier completed one", bad)
	}
}

func TestBaselineDigestRecorded(t *testing.T) {
	d, err := baselineDigest()
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 64 || strings.Trim(d, "0123456789abcdef") != "" {
		t.Fatalf("baseline.json figures_sha256 %q is not a hex SHA-256", d)
	}
}
