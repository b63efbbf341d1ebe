package gossip

import (
	"math"
	"testing"

	"geogossip/internal/channel"
	"geogossip/internal/rng"
	"geogossip/internal/sim"
)

// burstFaults is a heavily bursty medium: ~20% stationary loss arriving
// in runs of ~10 packets.
func burstFaults() channel.Spec {
	return channel.Spec{
		Loss: channel.LossGilbertElliott,
		GE:   channel.GEParams{PGoodToBad: 0.025, PBadToGood: 0.1, LossGood: 0.01, LossBad: 0.95},
	}
}

func sumOf(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// TestBoydAtomicUnderBurstLoss: pair updates commit atomically, so the
// sum invariant — and with it the consensus target — survives arbitrary
// burst loss, and the run still converges.
func TestBoydAtomicUnderBurstLoss(t *testing.T) {
	g := generate(t, 300, 2.0, 500)
	x := randomValues(g.N(), 501)
	sum0 := sumOf(x)
	res, err := RunBoyd(g, x, Options{
		RunEnv: sim.RunEnv{
			Stop:   sim.StopRule{TargetErr: 1e-2, MaxTicks: 10_000_000},
			Faults: burstFaults(),
		},
	}, rng.New(502))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("boyd under burst loss did not converge: %v", res)
	}
	if got := sumOf(x); math.Abs(got-sum0) > 1e-9*(math.Abs(sum0)+1) {
		t.Fatalf("sum drifted under burst loss: %v -> %v", sum0, got)
	}
}

func TestGeographicAtomicUnderBurstLoss(t *testing.T) {
	g := generate(t, 300, 2.0, 503)
	x := randomValues(g.N(), 504)
	sum0 := sumOf(x)
	res, err := RunGeographic(g, x, GeoOptions{
		Options: Options{
			RunEnv: sim.RunEnv{
				Stop:   sim.StopRule{TargetErr: 1e-2, MaxTicks: 3_000_000},
				Faults: burstFaults(),
			},
		},
	}, rng.New(505))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("geographic under burst loss did not converge: %v", res)
	}
	if got := sumOf(x); math.Abs(got-sum0) > 1e-9*(math.Abs(sum0)+1) {
		t.Fatalf("sum drifted under burst loss: %v -> %v", sum0, got)
	}
}

// TestBoydSumInvariantUnderChurnAndLoss: even composed with node churn,
// every committed exchange is an atomic pairwise average between live
// nodes, so Σx over all nodes (dead ones frozen) is exactly invariant.
func TestBoydSumInvariantUnderChurnAndLoss(t *testing.T) {
	g := generate(t, 300, 2.0, 506)
	x := randomValues(g.N(), 507)
	sum0 := sumOf(x)
	spec := channel.Spec{
		Loss:     channel.LossBernoulli,
		LossRate: 0.2,
		Churn:    channel.ChurnParams{MeanUp: 200_000, MeanDown: 50_000},
	}
	res, err := RunBoyd(g, x, Options{
		RunEnv: sim.RunEnv{
			Stop:   sim.StopRule{MaxTicks: 1_000_000},
			Faults: spec,
		},
	}, rng.New(508))
	if err != nil {
		t.Fatal(err)
	}
	if got := sumOf(x); math.Abs(got-sum0) > 1e-9*(math.Abs(sum0)+1) {
		t.Fatalf("sum drifted under churn+loss: %v -> %v", sum0, got)
	}
	if res.Alive == nil {
		t.Fatal("churn run reported no liveness mask")
	}
}

// TestBoydSurvivorDriftUnderChurn: under crash-stop churn the survivors
// reach consensus among themselves, but nodes that died early carried
// away un-averaged deviation, so the survivor consensus is measurably
// biased off the true initial mean. This is the drift push-sum's mass
// accounting is designed to expose (see the push-sum tests).
func TestBoydSurvivorDriftUnderChurn(t *testing.T) {
	g := generate(t, 300, 2.0, 509)
	x := randomValues(g.N(), 510)
	mean := meanOf(x)
	res, err := RunBoyd(g, x, Options{
		RunEnv: sim.RunEnv{
			Stop:   sim.StopRule{MaxTicks: 3_000_000},
			Faults: channel.Spec{Churn: channel.ChurnParams{MeanUp: 3_000_000}},
		},
	}, rng.New(511))
	if err != nil {
		t.Fatal(err)
	}
	if res.Alive == nil {
		t.Fatal("no liveness mask")
	}
	var survivorSum float64
	survivors := 0
	for i, alive := range res.Alive {
		if alive {
			survivorSum += x[i]
			survivors++
		}
	}
	if survivors == 0 || survivors == g.N() {
		t.Fatalf("want partial churn, got %d/%d survivors", survivors, g.N())
	}
	survivorMean := survivorSum / float64(survivors)
	// Survivors agree with each other far more tightly than with the
	// true mean: consensus reached, target missed.
	var maxSpread float64
	for i, alive := range res.Alive {
		if alive {
			if d := math.Abs(x[i] - survivorMean); d > maxSpread {
				maxSpread = d
			}
		}
	}
	drift := math.Abs(survivorMean - mean)
	if drift < 10*maxSpread {
		t.Fatalf("expected survivor consensus (spread %v) biased off the true mean, drift only %v", maxSpread, drift)
	}
}

// TestPushSumMassConservedUnderChurn: the rollback bookkeeping keeps the
// push-sum invariants Σs = Σx(0) and Σw = n exact under churn composed
// with loss — mass is stranded in dead nodes, never destroyed.
func TestPushSumMassConservedUnderChurn(t *testing.T) {
	g := generate(t, 300, 2.0, 512)
	x := randomValues(g.N(), 513)
	sum0 := sumOf(x)
	for _, churn := range []channel.ChurnParams{
		{MeanUp: 500_000},                    // crash-stop
		{MeanUp: 200_000, MeanDown: 100_000}, // revival
	} {
		xs := append([]float64(nil), x...)
		_, s, w, err := RunPushSumState(g, xs, Options{
			RunEnv: sim.RunEnv{
				Stop: sim.StopRule{MaxTicks: 1_000_000},
				Faults: channel.Spec{
					Loss:     channel.LossBernoulli,
					LossRate: 0.15,
					Churn:    churn,
				},
			},
		}, rng.New(514))
		if err != nil {
			t.Fatal(err)
		}
		sumS, sumW := PushSumMass(s, w)
		if math.Abs(sumS-sum0) > 1e-9*(math.Abs(sum0)+1) {
			t.Fatalf("churn %+v: Σs drifted %v -> %v", churn, sum0, sumS)
		}
		if math.Abs(sumW-float64(g.N())) > 1e-9 {
			t.Fatalf("churn %+v: Σw drifted %v -> %v", churn, g.N(), sumW)
		}
	}
}

// TestPushSumRecoversTrueMeanAfterRevival: with revival, stranded mass
// returns intact, so the estimates converge to the exact initial mean —
// the payoff of mass conservation that a drifted plain-averaging run
// cannot recover.
func TestPushSumRecoversTrueMeanAfterRevival(t *testing.T) {
	g := generate(t, 200, 2.0, 515)
	x := randomValues(g.N(), 516)
	mean := meanOf(x)
	res, err := RunPushSum(g, x, Options{
		RunEnv: sim.RunEnv{
			Stop: sim.StopRule{TargetErr: 1e-3, MaxTicks: 20_000_000},
			Faults: channel.Spec{
				Churn: channel.ChurnParams{MeanUp: 100_000, MeanDown: 20_000},
			},
		},
	}, rng.New(517))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("push-sum under revival churn did not converge: %v", res)
	}
	for i, v := range x {
		if math.Abs(v-mean) > 0.02 {
			t.Fatalf("node %d estimate %v far from true mean %v", i, v, mean)
		}
	}
}
