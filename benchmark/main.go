// Command geobench is the repository's end-to-end benchmark. It runs one
// named workload through the public sweep API (geogossip.Sweep, SweepServe
// and SweepJoin), checks every result, and prints each metric by name and
// unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through benchmark/run.sh, which builds
// it first:
//
//	bash benchmark/run.sh --workload faults --seed 1 --seconds 45 --trace 0
//	bash benchmark/run.sh --workload grid --seed 1 --seconds 45 --trace 1
//	bash benchmark/run.sh --compare base.jsonl head.jsonl
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it adds
// a CPU-profiled setup and timed pass and reports the per-layer metrics.
// --out FILE appends each run's full record, host block included, to FILE;
// --compare reads two such files. README.md in this directory documents the
// workloads and every metric.
package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"time"
)

// setupPasses is the number of setup passes an untraced run makes;
// setup_s is their median.
const setupPasses = 11

// record is everything one run reports; --out appends it as one JSON line.
type record struct {
	Workload  string         `json:"workload"`
	Trace     int            `json:"trace"`
	Host      hostInfo       `json:"host"`
	Digest    string         `json:"digest"`
	Passes    int            `json:"passes"`
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	FailRatio float64        `json:"fail_ratio"`
	Tail      tailInfo       `json:"task_tail"`
	Metrics   map[string]val `json:"metrics"`
}

type tailInfo struct {
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
}

type val struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool           `json:"correct"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Metrics   map[string]val `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "geobench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name     = flag.String("workload", "", "workload to run: faults or grid")
		seed     = flag.Uint64("seed", 1, "workload seed, used as every grid's SweepSpec.BaseSeed")
		secs     = flag.Int("seconds", 45, "minimum measured time: timed passes repeat until it has passed")
		trace    = flag.Int("trace", 0, "1 adds a CPU-profiled setup and timed pass and reports per-layer metrics")
		state    = flag.String("state", ".bench_build/state", "directory for network stores, sinks, profiles and digest records")
		out      = flag.String("out", "", "append this run's full record as one JSON line to FILE")
		compareF = flag.Bool("compare", false, "compare two record files given as arguments (base, then head) and exit")
	)
	flag.Parse()
	if *compareF {
		if flag.NArg() != 2 {
			return errors.New("--compare takes two record files: base and head")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	w, ok := findWorkload(*name, *seed)
	if !ok {
		return fmt.Errorf("unknown workload %q (want faults or grid)", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *secs < 1 {
		return errors.New("--seconds must be at least 1")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	host := readHost(*seed)
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host: %s\n", hostLine)
	rec, err := measure(ctx, w, host, *state, time.Duration(*secs)*time.Second, *trace)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			return err
		}
	}
	line, err := json.Marshal(result{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure runs the workload's setup passes and timed passes and gathers
// the record. A sink digest that differs between two passes, or from an
// earlier run of this build, is an error.
func measure(ctx context.Context, w workload, host hostInfo, state string, minTime time.Duration, trace int) (*record, error) {
	traced := trace == 1
	runDir := filepath.Join(state, fmt.Sprintf("%s-%d", w.name, host.Seed))
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	store := filepath.Join(runDir, "netstore")

	// Setup: fill a fresh store with every network the workload uses.
	setups, setupProfile := setupPasses, ""
	if traced {
		setups, setupProfile = 1, filepath.Join(runDir, "setup.pprof")
	}
	var (
		setupWalls []float64
		setup      *passResult
	)
	for i := range setups {
		if err := os.RemoveAll(store); err != nil {
			return nil, err
		}
		p, err := runPass(ctx, w.setupSpec(), store, setupSlots, false, runDir, setupProfile)
		if err != nil {
			return nil, fmt.Errorf("setup pass %d: %w", i+1, err)
		}
		if v := check(p.results()); len(v.errors)+len(v.violations)+len(v.misses) > 0 {
			return nil, fmt.Errorf("setup pass %d: zero-work tasks did not all stop cleanly: %v %v %v", i+1, v.errors, v.violations, v.misses)
		}
		setup = p
		setupWalls = append(setupWalls, p.wall.Seconds())
		fmt.Printf("setup pass %d: %.3f s, %d networks built\n", i+1, p.wall.Seconds(), int(counterMetrics(p)["netstore.builds"]))
	}

	// Timed passes: the real grid against the filled store, repeated while
	// another pass would end closer to minTime than stopping now.
	var (
		passes  []*passResult
		peakRSS float64
	)
	start := time.Now()
	for len(passes) == 0 || time.Since(start)+time.Since(start)/time.Duration(2*len(passes)) < minTime {
		p, err := runPass(ctx, w.spec, store, 1, w.distributed, runDir, "")
		if err != nil {
			return nil, fmt.Errorf("timed pass %d: %w", len(passes)+1, err)
		}
		if len(passes) == 0 {
			// A high-water mark only grows, so it is read at a fixed point:
			// after the setup passes and the first timed pass.
			peakRSS = peakRSSBytes()
		}
		passes = append(passes, p)
		fmt.Printf("timed pass %d: %.3f s, %d transmissions, task p50 %.4f s, digest %s\n",
			len(passes), p.wall.Seconds(), p.transmissions(), midTask(p.spans), hex.EncodeToString(p.digest[:8]))
	}
	var tracedPass *passResult
	if traced {
		p, err := runPass(ctx, w.spec, store, 1, w.distributed, runDir, filepath.Join(runDir, "timed.pprof"))
		if err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		tracedPass = p
		fmt.Printf("traced pass: %.3f s\n", p.wall.Seconds())
	}

	all := passes
	if tracedPass != nil {
		all = append(all[:len(all):len(all)], tracedPass)
	}
	for i, p := range all[1:] {
		if p.digest != all[0].digest {
			return nil, fmt.Errorf("sink digest of pass %d differs from pass 1: the same grid gave different outputs", i+2)
		}
	}
	key := fmt.Sprintf("%s-%s-%d", host.Build, w.name, host.Seed)
	if err := rememberDigest(filepath.Join(state, "digests", key), all[0].digest); err != nil {
		return nil, err
	}
	digest := hex.EncodeToString(all[0].digest[:])
	fmt.Printf("sink digest: sha256:%s\n", digest)

	v := check(passes[0].results())
	for _, s := range append(append(v.errors, v.violations...), v.misses...) {
		fmt.Printf("task: %s\n", s)
	}
	fmt.Printf("fail_ratio: %.6g (%d of %d tasks failed: %d errors, %d not converged, %d above target)\n",
		v.failRatio(), v.failed(), v.attempted, len(v.errors), len(v.misses), v.aboveTarget)

	// Task percentiles are taken per pass, then their fast-side quartile
	// over passes, like every other timing: a pooled maximum would pick the
	// slowest pass.
	var p50s, tails []float64
	var tailPct float64
	for _, p := range passes {
		t, pct := tail(p.spans)
		p50s, tails, tailPct = append(p50s, midTask(p.spans)), append(tails, t.Seconds()), pct
	}
	tasks := len(passes[0].spans)
	rec := &record{
		Workload:  w.name,
		Trace:     trace,
		Host:      host,
		Digest:    digest,
		Passes:    len(passes),
		Correct:   len(v.violations) == 0,
		Attempted: v.attempted,
		Failed:    len(v.errors),
		FailRatio: v.failRatio(),
		Tail:      tailInfo{Percentile: tailPct, Samples: tasks},
		Metrics:   make(map[string]val),
	}
	if !traced {
		var walls, rates, allocs []float64
		for _, p := range passes {
			walls = append(walls, p.wall.Seconds())
			rates = append(rates, float64(p.transmissions())/p.wall.Seconds())
			allocs = append(allocs, float64(p.allocBytes)/1e6)
		}
		// The timed passes of a run do identical work, and another
		// tenant's load on the host can only slow a pass, so the timings
		// take the quartile on the fast side: it reads the program's own
		// speed as long as a quarter of the passes ran undisturbed.
		values := map[string]float64{
			"wall_s":      lowerQuartile(walls),
			"setup_s":     median(setupWalls),
			"tx_per_s":    upperQuartile(rates),
			"task_p50_s":  lowerQuartile(p50s),
			"task_tail_s": lowerQuartile(tails),
			"alloc_mb":    median(allocs),
			"peak_rss_mb": peakRSS / 1e6,
		}
		for _, m := range endToEnd {
			rec.Metrics[m.Name] = val{Value: values[m.Name], Unit: m.Unit}
			fmt.Printf("metric %s = %.6g %s\n", m.Name, values[m.Name], m.Unit)
		}
		fmt.Printf("task_tail_s is the p%.1f of each pass's %d tasks\n", tailPct, tasks)
		return rec, nil
	}

	values, err := layerMetrics(ctx, runDir, setup, passes, tracedPass)
	if err != nil {
		return nil, err
	}
	values["fail_ratio"] = v.failRatio()
	for _, m := range perLayer() {
		rec.Metrics[m.Name] = val{Value: values[m.Name], Unit: m.Unit}
		fmt.Printf("metric %s = %.6g %s\n", m.Name, values[m.Name], m.Unit)
	}
	return rec, nil
}

// layerMetrics gathers the per-layer metrics: counts from the reports, GC
// CPU from the untraced passes, and from the two profiles the self time
// per layer, the CPU time per engine and the share of slot time spent
// running tasks.
func layerMetrics(ctx context.Context, runDir string, setup *passResult, passes []*passResult, traced *passResult) (map[string]float64, error) {
	values := counterMetrics(passes[len(passes)-1])
	setupCounts := counterMetrics(setup)
	values["setup.netstore.builds"] = setupCounts["netstore.builds"]
	values["setup.netstore.bytes_written"] = setupCounts["netstore.bytes_written"]
	var walls, gc []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		gc = append(gc, p.gcCPU)
	}
	values["runtime.gc_cpu_s"] = median(gc)
	values["profile.overhead_frac"] = traced.wall.Seconds()/median(walls) - 1

	for _, prof := range []struct{ prefix, file string }{{"", "timed.pprof"}, {"setup.", "setup.pprof"}} {
		split, err := readProfile(ctx, filepath.Join(runDir, prof.file))
		if err != nil {
			return nil, err
		}
		for _, l := range layers {
			values[prof.prefix+l+".self_s"] = split.self[l]
		}
		if prof.prefix == "" {
			for k, v := range engineCPU(traced, split) {
				values[k] = v
			}
			values["sweep.slot_busy_frac"] = split.inside[taskFrame] / (float64(traced.slots) * traced.wall.Seconds())
			if split.inside[taskFrame] == 0 {
				fmt.Printf("warning: no profile samples inside %s\n", taskFrame)
			}
		}
	}
	return values, nil
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
