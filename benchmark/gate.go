package main

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"geogossip"
)

// verdict is the correctness gate's reading of one pass's results.
type verdict struct {
	attempted int
	// errors lists tasks that returned an error.
	errors []string
	// violations lists results that break an invariant every result must
	// keep; aboveTarget counts those that claim convergence above target.
	violations  []string
	aboveTarget int
	// misses lists tasks that ran but did not reach their target.
	misses []string
}

// failed is the number of tasks that fail by the benchmark's definition:
// the task errored, did not converge, or claims convergence above target.
func (v verdict) failed() int { return len(v.errors) + len(v.misses) + v.aboveTarget }

func (v verdict) failRatio() float64 {
	if v.attempted == 0 {
		return 0
	}
	return float64(v.failed()) / float64(v.attempted)
}

// check applies the gate to every result: no error, converged implies
// final_err <= target, and the per-category breakdown sums to the
// transmission count.
func check(results []geogossip.SweepResult) verdict {
	v := verdict{attempted: len(results)}
	for _, r := range results {
		id := fmt.Sprintf("%s n=%d seed=%d", r.Algorithm, r.N, r.SeedIndex)
		if r.Err != "" {
			v.errors = append(v.errors, fmt.Sprintf("%s: %s", id, r.Err))
			continue
		}
		if r.Converged && r.FinalErr > r.TargetErr {
			v.aboveTarget++
			v.violations = append(v.violations, fmt.Sprintf("%s: converged with final_err %g above target %g", id, r.FinalErr, r.TargetErr))
		}
		var sum uint64
		for _, c := range r.Breakdown {
			sum += c
		}
		if sum != r.Transmissions {
			v.violations = append(v.violations, fmt.Sprintf("%s: breakdown sums to %d, transmissions %d", id, sum, r.Transmissions))
		}
		if !r.Converged {
			v.misses = append(v.misses, fmt.Sprintf("%s: not converged, final_err %.4g (target %g)", id, r.FinalErr, r.TargetErr))
		}
	}
	return v
}

// rememberDigest records digest at path, the record of one (build,
// workload, seed), or compares it with the digest an earlier run recorded
// there: the same binary must write the same sink in every run.
func rememberDigest(path string, digest [32]byte) error {
	got := hex.EncodeToString(digest[:])
	prev, err := os.ReadFile(path)
	if err == nil {
		if want := strings.TrimSpace(string(prev)); want != got {
			return fmt.Errorf("sink digest %s differs from %s recorded by an earlier run of this build", got, want)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(got+"\n"), 0o644)
}
