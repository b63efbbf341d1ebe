package sweep

import (
	"context"
	"geogossip/internal/engine"
	"reflect"
	"testing"
)

// TestPooledWorkersMatchFreshExecute runs a grid covering all five
// engines and a fault + recovery axis through the worker pool (pooled
// per-worker run states) and compares every task result against a fresh
// per-task Execute — the pooled-vs-fresh contract at the orchestration
// layer.
func TestPooledWorkersMatchFreshExecute(t *testing.T) {
	spec := Spec{
		Algorithms:  []string{engine.Boyd, engine.Geographic, engine.PushSum, engine.Affine, engine.Async},
		Ns:          []int{96, 160},
		Seeds:       2,
		FaultModels: []string{"", "churn:60000/20000"},
		Recovery:    []bool{false, true},
		TargetErr:   5e-2,
		MaxTicks:    2_000_000,
	}
	pooled, err := Run(context.Background(), spec, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	cache := newNetCache()
	fresh := make([]TaskResult, 0, len(pooled))
	for _, task := range spec.Expand() {
		fresh = append(fresh, Execute(task, cache))
	}
	if len(pooled) != len(fresh) {
		t.Fatalf("pooled run returned %d results, fresh %d", len(pooled), len(fresh))
	}
	for i := range fresh {
		if !reflect.DeepEqual(pooled[i], fresh[i]) {
			t.Fatalf("task %d diverged:\npooled: %+v\nfresh:  %+v", fresh[i].TaskID, pooled[i], fresh[i])
		}
	}
}

// TestRecoveryAxisKeepsPriorSeeds pins the recovery axis's
// compatibility contract: an empty axis expands to the identical task
// list (IDs, coordinates, run seeds) as {false}, and in a {false, true}
// grid every recovery-off task keeps the exact run seed of the axis-less
// grid — so sweep output produced before the axis existed stays
// bit-identical and resumable.
func TestRecoveryAxisKeepsPriorSeeds(t *testing.T) {
	base := Spec{
		Algorithms:  []string{engine.Boyd, engine.Affine},
		Ns:          []int{128},
		Seeds:       2,
		FaultModels: []string{"", "churn:60000/20000"},
	}
	withFalse := base
	withFalse.Recovery = []bool{false}
	a, b := base.Expand(), withFalse.Expand()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("empty recovery axis does not expand identically to {false}")
	}

	crossed := base
	crossed.Recovery = []bool{false, true}
	seeds := make(map[string]uint64)
	for _, task := range a {
		key := task.Algorithm + "|" + task.FaultModel + "|" + string(rune(task.SeedIndex))
		seeds[key] = task.runSeed()
	}
	offs, ons := 0, 0
	for _, task := range crossed.Expand() {
		key := task.Algorithm + "|" + task.FaultModel + "|" + string(rune(task.SeedIndex))
		want, ok := seeds[key]
		if !ok {
			t.Fatalf("crossed grid produced unknown coordinates %q", key)
		}
		if task.Recover {
			ons++
			if task.runSeed() == want {
				t.Fatalf("recovery-on task %q shares the recovery-off run seed", key)
			}
		} else {
			offs++
			if task.runSeed() != want {
				t.Fatalf("recovery-off task %q changed run seed: %d != %d", key, task.runSeed(), want)
			}
		}
	}
	if offs == 0 || ons == 0 {
		t.Fatalf("crossed grid missing an axis side: %d off, %d on", offs, ons)
	}
}

// TestRecoveryAxisAggregation checks recovery lands in its own grid
// cells and survives the result→cell round trip.
func TestRecoveryAxisAggregation(t *testing.T) {
	results := []TaskResult{
		{TaskID: 0, Algorithm: engine.Boyd, N: 64, FaultModel: "churn:1000/100", Recover: false, Transmissions: 100, Converged: true},
		{TaskID: 1, Algorithm: engine.Boyd, N: 64, FaultModel: "churn:1000/100", Recover: true, Transmissions: 140, Converged: true},
	}
	sum := Aggregate(results)
	if len(sum.Cells) != 2 {
		t.Fatalf("recovery on/off collapsed into %d cells, want 2", len(sum.Cells))
	}
	if sum.Cells[0].Recover == sum.Cells[1].Recover {
		t.Fatal("cells do not distinguish recovery")
	}
	if sum.Cells[0].Recover || !sum.Cells[1].Recover {
		t.Fatal("cells not ordered recovery-off first")
	}
}
