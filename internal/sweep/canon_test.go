package sweep

import (
	"testing"

	"geogossip/internal/engine"
)

func TestFaultModelCanonicalization(t *testing.T) {
	spec := Spec{Algorithms: []string{engine.Boyd}, Ns: []int{64},
		FaultModels: []string{"perfect", "bernoulli:.2", "ge:0.1/0.2/0/.5+churn:5e3/0"}}
	got := spec.Normalized().FaultModels
	want := []string{"", "bernoulli:0.2", "ge:0.1/0.2/0/0.5+churn:5000/0"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: %q, want %q", i, got[i], want[i])
		}
	}
}
