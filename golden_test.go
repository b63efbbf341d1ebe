package geogossip

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
)

// The golden digests pin today's output byte for byte: the SHA-256 of
// the canonical (line-sorted) JSONL sink of two small sweep grids, and
// each facade engine's transmissions, final-error bits and breakdown.
// The pooled-vs-fresh and worker-invariance suites only compare two
// paths of one build against each other; these catch a refactor that
// moves both paths at once. A deliberate behaviour change updates the
// constants and says so in CHANGES.md.

const (
	// goldenGridDigest pins goldenGridSpec: all five engines,
	// n ∈ {128, 256}, two seeds, loss axis {0, 0.1}.
	goldenGridDigest = "208b4fc57f2e7264516297f73c69bd97b1a0114e4ca668384039fbdf8340a628"
	// goldenFaultDigest pins goldenFaultSpec: Gilbert–Elliott loss plus
	// churn, an exponential-delay + ARQ transport, recovery on.
	goldenFaultDigest = "2abe8050856a840541b53f5cf8cf4ef0099a7c2b2549c78ff104fe1424e7aecf"
)

var allEngines = []string{"boyd", "geographic", "push-sum", "affine-hierarchical", "affine-async"}

func goldenGridSpec() SweepSpec {
	return SweepSpec{
		Algorithms:       allEngines,
		Ns:               []int{128, 256},
		Seeds:            2,
		LossRates:        []float64{0, 0.1},
		RadiusMultiplier: 2.0,
	}
}

func goldenFaultSpec() SweepSpec {
	return SweepSpec{
		Algorithms:       allEngines,
		Ns:               []int{128, 256},
		Seeds:            2,
		FaultModels:      []string{"ge:0.05/0.3/0.01/0.5+churn:4000/400"},
		Transports:       []string{"delay:exp/1+arq:3/2/1.5"},
		Recovery:         []bool{true},
		TargetErr:        0.1,
		RadiusMultiplier: 2.0,
	}
}

// sinkDigest runs spec and hashes its JSONL sink with the lines sorted,
// the canonical form that is independent of completion order.
func sinkDigest(t *testing.T, spec SweepSpec) string {
	t.Helper()
	var buf bytes.Buffer
	rep, err := Sweep(context.Background(), spec, WithSweepWorkers(2), WithSweepJSONL(&buf))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if r.Err != "" {
			t.Fatalf("task %d (%s n=%d) failed: %s", r.TaskID, r.Algorithm, r.N, r.Err)
		}
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	slices.Sort(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "")))
	return hex.EncodeToString(sum[:])
}

func TestGoldenSweepDigests(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec SweepSpec
		want string
	}{
		{"grid", goldenGridSpec(), goldenGridDigest},
		{"faults", goldenFaultSpec(), goldenFaultDigest},
	} {
		if got := sinkDigest(t, tc.spec); got != tc.want {
			t.Errorf("%s sink digest = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// goldenRun is one facade run's pinned outcome.
type goldenRun struct {
	engine    string
	opts      string
	tx        uint64
	errBits   uint64
	breakdown map[string]uint64
}

func (g goldenRun) String() string {
	keys := slices.Sorted(maps.Keys(g.breakdown))
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%q: %d, ", k, g.breakdown[k])
	}
	return fmt.Sprintf("{%q, %q, %d, %#x, map[string]uint64{%s}},", g.engine, g.opts, g.tx, g.errBits, strings.TrimSuffix(b.String(), ", "))
}

// goldenOptions names the option sets the facade table crosses with
// every engine.
var goldenOptions = map[string][]RunOption{
	"plain": {WithTargetError(1e-2), WithRunSeed(3)},
	"loss":  {WithTargetError(1e-2), WithRunSeed(3), WithLossRate(0.1)},
	"faults": {WithTargetError(0.1), WithRunSeed(3), WithFaults("ge:0.05/0.3/0.01/0.5"),
		WithChurn(4000, 400), WithDelay("exp/1"), WithARQ(3, 2, 1.5), WithRecovery()},
	"parallel": {WithTargetError(1e-2), WithRunSeed(3), WithParallel(4, 2)},
	"parallel-faults": {WithTargetError(0.1), WithRunSeed(3), WithFaults("ge:0.05/0.3/0.01/0.5"),
		WithChurn(4000, 400), WithRecovery(), WithParallel(4, 2)},
}

// goldenFacade pins every engine under each option set it supports.
var goldenFacade = []goldenRun{
	{"boyd", "plain", 22906, 0x3f84795912114747, map[string]uint64{"control": 0, "far": 0, "flood": 0, "near": 22906}},
	{"boyd", "loss", 24099, 0x3f84798f923e7138, map[string]uint64{"control": 0, "far": 0, "flood": 0, "near": 24099}},
	{"boyd", "faults", 11590, 0x3fb98c05bca78fb8, map[string]uint64{"control": 368, "far": 0, "flood": 0, "near": 11222}},
	{"geographic", "plain", 17403, 0x3f8435b0d84d2d0c, map[string]uint64{"control": 0, "far": 17403, "flood": 0, "near": 0}},
	{"geographic", "loss", 21133, 0x3f846ea518465223, map[string]uint64{"control": 0, "far": 21133, "flood": 0, "near": 0}},
	{"geographic", "faults", 10558, 0x3fb994f9c2502beb, map[string]uint64{"control": 32, "far": 10526, "flood": 0, "near": 0}},
	{"push-sum", "plain", 19714, 0x3f8476a9e68828e7, map[string]uint64{"control": 0, "far": 0, "flood": 0, "near": 19714}},
	{"push-sum", "loss", 21759, 0x3f8478ebc73d356f, map[string]uint64{"control": 0, "far": 0, "flood": 0, "near": 21759}},
	{"push-sum", "faults", 13172, 0x3fb998612592572b, map[string]uint64{"control": 0, "far": 0, "flood": 0, "near": 13172}},
	{"affine-hierarchical", "plain", 85696, 0x3f83ea69085d1d3c, map[string]uint64{"control": 0, "far": 690, "flood": 0, "near": 85006}},
	{"affine-hierarchical", "loss", 83286, 0x3f81e003782c1fa5, map[string]uint64{"control": 0, "far": 645, "flood": 0, "near": 82641}},
	{"affine-hierarchical", "faults", 95246, 0x3fb70b116cb1532e, map[string]uint64{"control": 0, "far": 400, "flood": 58, "near": 94788}},
	{"affine-async", "plain", 586027, 0x3f84566816ba460c, map[string]uint64{"control": 29, "far": 754, "flood": 8004, "near": 577240}},
	{"affine-async", "loss", 446381, 0x3f84759c3703f0c8, map[string]uint64{"control": 29, "far": 607, "flood": 6429, "near": 439316}},
	{"affine-async", "faults", 1530312, 0x3fb96e84b44a52e3, map[string]uint64{"control": 67945, "far": 377, "flood": 68783, "near": 1393207}},
	{"boyd", "parallel", 22528, 0x3f82ebb98421df77, map[string]uint64{"control": 0, "far": 0, "flood": 0, "near": 22528}},
	{"push-sum", "parallel", 19456, 0x3f8368a19fd61e8e, map[string]uint64{"control": 0, "far": 0, "flood": 0, "near": 19456}},
	{"affine-async", "parallel-faults", 1068298, 0x3fb9996a0817d849, map[string]uint64{"control": 51147, "far": 365, "flood": 51538, "near": 965248}},
}

var goldenConstructors = map[string]func(...RunOption) Algorithm{
	"boyd":                Boyd,
	"geographic":          Geographic,
	"push-sum":            PushSum,
	"affine-hierarchical": AffineHierarchical,
	"affine-async":        AffineAsync,
}

func TestGoldenFacadeRuns(t *testing.T) {
	nw, err := NewNetwork(256, WithSeed(11), WithRadiusMultiplier(2.0))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, w := range goldenFacade {
		values := make([]float64, nw.N())
		for i, p := range nw.Positions() {
			values[i] = 10*p[0] + math.Sin(7*p[1])
		}
		res, err := goldenConstructors[w.engine](goldenOptions[w.opts]...).Run(nw, values)
		if err != nil {
			t.Fatalf("%s/%s: %v", w.engine, w.opts, err)
		}
		g := goldenRun{w.engine, w.opts, res.Transmissions, math.Float64bits(res.FinalErr), res.Breakdown}
		got = append(got, g.String())
		if w.tx != g.tx || w.errBits != g.errBits || !maps.Equal(w.breakdown, g.breakdown) {
			t.Errorf("%s/%s = %v, want %v", w.engine, w.opts, g, w)
		}
	}
	if t.Failed() {
		t.Logf("current table:\n%s", strings.Join(got, "\n"))
	}
}
