package main

import (
	"strings"
	"testing"
)

// TestLoadtestSmoke runs the whole harness in its quick self-test
// shape: a 2-worker cluster, cold + warm + verify phases, byte-identity
// and warm-cache assertions. This is the same invocation `make
// loadtest-smoke` (and therefore `make verify`) runs.
func TestLoadtestSmoke(t *testing.T) {
	var out, errOut strings.Builder
	args := []string{"-smoke", "-requests", "8", "-clients", "4", "-seeds", "2", "-instr", "2000"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("loadtest -smoke = %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "loadtest smoke: PASS") {
		t.Fatalf("missing PASS line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "cache-hit 100.0%") {
		t.Fatalf("warm phase not fully cached:\n%s", out.String())
	}
}

// TestChaosSmoke runs the harness's chaos shape: the same 2-worker
// self-test with faults injected on every coordinator->worker
// connection. Clean answers and byte-identity are still mandatory.
func TestChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos smoke in -short mode")
	}
	var out, errOut strings.Builder
	args := []string{"-smoke", "-requests", "8", "-clients", "4", "-seeds", "2", "-instr", "2000",
		"-chaos", "latency:p=0.1,ms=20;err:p=0.1,status=503;corrupt:p=0.05", "-chaos-seed", "7"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("loadtest -smoke -chaos = %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "loadtest smoke: PASS") {
		t.Fatalf("missing PASS line:\n%s", out.String())
	}
}

func TestBadChaosFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-chaos", "latency:nope=1"}, &out, &errOut); code != 2 {
		t.Fatalf("run -chaos latency:nope=1 = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-chaos") {
		t.Fatalf("stderr missing -chaos diagnosis: %s", errOut.String())
	}
}

func TestBadNodeFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-nodes", "zero"}, &out, &errOut); code != 2 {
		t.Fatalf("run -nodes zero = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "-nodes") {
		t.Fatalf("stderr missing -nodes diagnosis: %s", errOut.String())
	}
}
