package core

import (
	"math"
	"reflect"
	"testing"

	"geogossip/internal/hier"
	"geogossip/internal/par"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

// healWorkerCounts is the DESIGN.md §9 invariance set for the sharded
// recovery sweep.
func healWorkerCounts() []int {
	counts := []int{1, 2, par.NumCPU()}
	out := counts[:0]
	for _, w := range counts {
		dup := false
		for _, seen := range out {
			dup = dup || seen == w
		}
		if !dup {
			out = append(out, w)
		}
	}
	return out
}

// TestAsyncParallelHealWorkerInvariance runs the async engine with a
// reviving churn attack and the sharded recovery sweep at several worker
// counts: every run must be bit-identical (full result and final values)
// because the sweep snapshots liveness and donor state before fan-out.
func TestAsyncParallelHealWorkerInvariance(t *testing.T) {
	f := newFixture(t, 200, 2.0, 670, hier.Config{})
	g, h := f.g, f.h
	var refX []float64
	var refRes *AsyncResult
	for _, w := range healWorkerCounts() {
		x := smoothValues(g)
		res, err := RunAsync(g, h, x, AsyncOptions{
			RunEnv: sim.RunEnv{
				Faults:   repChurn(t, "repchurn:60000/60000"),
				Recover:  true,
				Parallel: sim.Parallel{Shards: 8, Workers: w},
				Stop:     sim.StopRule{TargetErr: 1e-2, MaxTicks: 2_000_000},
			},
		}, rng.New(671))
		if err != nil {
			t.Fatal(err)
		}
		if refX == nil {
			if res.Resyncs == 0 {
				t.Fatal("sharded recovery sweep performed no resyncs under reviving churn")
			}
			if !res.Converged {
				t.Fatalf("parallel-heal run did not converge: err=%v", res.FinalErr)
			}
			refX = append([]float64(nil), x...)
			refRes = res
			continue
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(refX[i]) {
				t.Fatalf("workers=%d: node %d value differs from workers=1 run", w, i)
			}
		}
		if !reflect.DeepEqual(refRes, res) {
			t.Fatalf("workers=%d: result differs from workers=1 run:\n%+v\nvs\n%+v", w, refRes, res)
		}
	}
}

// TestAsyncParallelPooledStateBitIdentity reuses one RunState across
// parallel-heal runs and demands bit-identity with a fresh-state run.
func TestAsyncParallelPooledStateBitIdentity(t *testing.T) {
	f := newFixture(t, 150, 2.0, 672, hier.Config{})
	g, h := f.g, f.h
	run := func(st *RunState) ([]float64, *AsyncResult) {
		x := smoothValues(g)
		res, err := RunAsync(g, h, x, AsyncOptions{
			RunEnv: sim.RunEnv{
				Faults:   repChurn(t, "repchurn:60000/60000"),
				Recover:  true,
				Parallel: sim.Parallel{Shards: 4, Workers: 2},
				Stop:     sim.StopRule{TargetErr: 1e-2, MaxTicks: 2_000_000},
			},
			State: st,
		}, rng.New(673))
		if err != nil {
			t.Fatal(err)
		}
		return x, res
	}
	freshX, freshRes := run(nil)
	st := NewRunState()
	for rep := 0; rep < 2; rep++ {
		x, res := run(st)
		if !reflect.DeepEqual(freshX, x) || !reflect.DeepEqual(freshRes, res) {
			t.Fatalf("pooled parallel-heal run %d diverged from fresh-state run", rep)
		}
	}
}

// TestAsyncParallelRequiresRecover pins the gate: Parallel shards the
// recovery sweep, so without Recover there is nothing to shard.
func TestAsyncParallelRequiresRecover(t *testing.T) {
	f := newFixture(t, 64, 2.5, 674, hier.Config{})
	x := smoothValues(f.g)
	_, err := RunAsync(f.g, f.h, x, AsyncOptions{
		RunEnv: sim.RunEnv{
			Stop:     sim.StopRule{TargetErr: 1e-2},
			Parallel: sim.Parallel{Workers: 2},
		},
	}, rng.New(675))
	if err == nil {
		t.Fatal("async accepted Parallel without Recover")
	}
}
