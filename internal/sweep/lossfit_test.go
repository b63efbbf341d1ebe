package sweep

import (
	"context"
	"geogossip/internal/engine"
	"strings"
	"testing"
)

func TestSpatialFaultModelCanonicalization(t *testing.T) {
	spec := Spec{Algorithms: []string{engine.Boyd}, Ns: []int{64},
		FaultModels: []string{"jam:.5/.5/.2/.9", "cut:1/0/.5/100/200", "hubchurn:5e3/0/8"}}
	got := spec.Normalized().FaultModels
	want := []string{"jam:0.5/0.5/0.2/0.9", "cut:1/0/0.5/100/200", "hubchurn:5000/0/8"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSpatialFaultAxisEndToEnd(t *testing.T) {
	spec := Spec{
		Algorithms:  []string{engine.Boyd},
		Ns:          []int{96},
		TargetErr:   5e-2,
		FaultModels: []string{"jam:0.5/0.5/0.25/0.9", "mjam:0.5/0.5/0.2/0.8/0.0001/0.00007", "cut:1/0/0.5/0/20000"},
	}
	results, err := Run(context.Background(), spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Error != "" {
			t.Fatalf("task %d (%s) failed: %s", r.TaskID, r.FaultModel, r.Error)
		}
		if !r.Converged {
			t.Errorf("task %d (%s) did not converge (err %v)", r.TaskID, r.FaultModel, r.FinalErr)
		}
	}
}

// TestRepChurnAxisErrorsPerTask: a rep-targeted entry crossed with a
// hierarchy-less algorithm records a per-task error instead of sinking
// the sweep.
func TestRepChurnAxisErrorsPerTask(t *testing.T) {
	spec := Spec{
		Algorithms:  []string{engine.Boyd, engine.Affine},
		Ns:          []int{96},
		TargetErr:   5e-2,
		FaultModels: []string{"repchurn:50000/10000"},
	}
	results, err := Run(context.Background(), spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		switch r.Algorithm {
		case engine.Boyd:
			if r.Error == "" || !strings.Contains(r.Error, "hierarchy") {
				t.Fatalf("boyd × repchurn: error %q, want a no-hierarchy failure", r.Error)
			}
		case engine.Affine:
			if r.Error != "" {
				t.Fatalf("affine × repchurn failed: %s", r.Error)
			}
		}
	}
}

func TestLossFitsAcrossFaultGrid(t *testing.T) {
	spec := Spec{
		Algorithms:  []string{engine.Boyd},
		Ns:          []int{96, 128},
		Seeds:       2,
		TargetErr:   5e-2,
		FaultModels: []string{"", "bernoulli:0.2", "bernoulli:0.4"},
	}
	results, err := Run(context.Background(), spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sum := Aggregate(results)
	if len(sum.LossFits) != 2 { // one line per network size
		t.Fatalf("got %d loss fits, want 2: %+v", len(sum.LossFits), sum.LossFits)
	}
	for _, f := range sum.LossFits {
		if f.Points != 3 {
			t.Fatalf("fit over %d cells, want 3", f.Points)
		}
		if f.Exponent <= 0 {
			t.Fatalf("cost-vs-loss exponent %v not positive: loss must make boyd more expensive", f.Exponent)
		}
		if f.Constant <= 0 {
			t.Fatalf("fit constant %v not positive", f.Constant)
		}
	}
}

func TestLossFitsAbsentWithoutLossAxis(t *testing.T) {
	spec := Spec{Algorithms: []string{engine.Boyd}, Ns: []int{96}, TargetErr: 5e-2}
	results, err := Run(context.Background(), spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fits := Aggregate(results).LossFits; len(fits) != 0 {
		t.Fatalf("loss fits produced without a loss axis: %+v", fits)
	}
}

func TestEffectiveLossFoldsFieldContent(t *testing.T) {
	// The loss content of a jamming field (loss × area × duty) counts
	// toward the fitted loss axis.
	p, ok := effectiveLoss(CellKey{FaultModel: "jam:0.5/0.5/0.2/1"})
	if !ok {
		t.Fatal("jam cell excluded from loss fitting")
	}
	if p <= 0 || p >= 0.2 {
		t.Fatalf("disk mean loss %v implausible (area π·0.04 ≈ 0.126)", p)
	}
	if p2, ok := effectiveLoss(CellKey{LossRate: 0.3}); !ok || p2 != 0.3 {
		t.Fatalf("plain loss-rate cell resolved to %v, %v", p2, ok)
	}
	if _, ok := effectiveLoss(CellKey{FaultModel: "not-a-spec"}); ok {
		t.Fatal("unparsable fault model included in loss fitting")
	}
	// Structural faults are not loss rates; their cells stay out of the
	// fit rather than pinning a huge cost at p = 0.
	if _, ok := effectiveLoss(CellKey{FaultModel: "cut:1/0/0.5/0/20000"}); ok {
		t.Fatal("cut cell included in loss fitting")
	}
	if _, ok := effectiveLoss(CellKey{FaultModel: "bernoulli:0.2+churn:5000/0"}); ok {
		t.Fatal("churn cell included in loss fitting")
	}
	// One-shot windows have no rate: their active fraction depends on the
	// run length, so fitting them at the always-on loss would bias q.
	if _, ok := effectiveLoss(CellKey{FaultModel: "jam:0.5/0.5/0.2/1/100/40000"}); ok {
		t.Fatal("one-shot-window field included in loss fitting")
	}
	// Periodic fields have a genuine duty cycle and stay in.
	if _, ok := effectiveLoss(CellKey{FaultModel: "jam:0.5/0.5/0.2/1/0/100/1000"}); !ok {
		t.Fatal("periodic field excluded from loss fitting")
	}
}
