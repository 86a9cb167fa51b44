package netsim

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestRunnersCancelled checks every workload runner returns the context
// error instead of simulating when the context is already done.
func TestRunnersCancelled(t *testing.T) {
	net, err := BuildHypercube(6, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := RunRandomUniformCtx(ctx, net, 1, 0.2, 10, 10); !errors.Is(err, context.Canceled) {
		t.Errorf("RunRandomUniformCtx err = %v, want context.Canceled", err)
	}
	if _, err := RunTotalExchangeCtx(ctx, net, 1, 1000); !errors.Is(err, context.Canceled) {
		t.Errorf("RunTotalExchangeCtx err = %v, want context.Canceled", err)
	}
	perm, err := Transpose(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPermutationCtx(ctx, net, 1, perm, 1000); !errors.Is(err, context.Canceled) {
		t.Errorf("RunPermutationCtx err = %v, want context.Canceled", err)
	}
}

// TestRunnersCtxBackground checks the ctx variants agree with the plain
// runners for an uncancelled context (same seed, same deterministic
// simulator).
func TestRunnersCtxBackground(t *testing.T) {
	net, err := BuildHypercube(5, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := RunRandomUniform(net, 7, 0.1, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := RunRandomUniformCtx(context.Background(), net, 7, 0.1, 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats != withCtx.Stats {
		t.Fatalf("ctx variant diverged: %+v vs %+v", plain.Stats, withCtx.Stats)
	}
	// A non-finite rate is refused, not run: +Inf would emit forever
	// inside one round, where ctx is never polled.
	for _, rate := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if _, err := RunRandomUniformCtx(context.Background(), net, 7, rate, 5, 20); err == nil {
			t.Errorf("rate %v: no error", rate)
		}
	}
}
