package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"geogossip"
)

// passResult is what one setup or timed pass produced.
type passResult struct {
	wall   time.Duration
	report *geogossip.SweepReport
	// sink is the JSONL sink in canonical task order; digest is its
	// SHA-256.
	sink   []byte
	digest [32]byte
	// spans are the tasks' wall times, each the gap between a task's
	// completion and the previous completion on the same slot (or the
	// start of the pass). A local pass keeps them per slot only when it
	// has one slot, as every timed local pass does.
	spans []time.Duration
	slots int
	// allocBytes is the heap allocated and gcCPU the GC CPU seconds spent
	// during the pass.
	allocBytes uint64
	gcCPU      float64
	// reissued counts distributed leases that expired and were re-issued.
	reissued float64
}

func (p *passResult) results() []geogossip.SweepResult { return p.report.Results }

func (p *passResult) transmissions() uint64 {
	var tx uint64
	for _, r := range p.results() {
		tx += r.Transmissions
	}
	return tx
}

// stampSink is a sweep's JSONL sink that keeps every line with the time it
// was written. The sweep writes one line per completed task, one call at a
// time, so on a one-slot sweep the gap between two lines is the later
// task's wall time. Write does no more than that; lines are parsed after
// the pass.
type stampSink struct {
	stamps []time.Time
	lines  [][]byte
}

func (s *stampSink) Write(p []byte) (int, error) {
	s.stamps = append(s.stamps, time.Now())
	s.lines = append(s.lines, bytes.Clone(p))
	return len(p), nil
}

// canonical returns the sink's lines sorted by task ID.
func (s *stampSink) canonical() ([]byte, error) {
	type line struct {
		id  int
		raw []byte
	}
	lines := make([]line, len(s.lines))
	for i, raw := range s.lines {
		var head struct {
			TaskID int `json:"task_id"`
		}
		if err := json.Unmarshal(raw, &head); err != nil {
			return nil, fmt.Errorf("sink line: %w", err)
		}
		lines[i] = line{head.TaskID, raw}
	}
	slices.SortFunc(lines, func(a, b line) int { return a.id - b.id })
	var buf bytes.Buffer
	for _, l := range lines {
		buf.Write(l.raw)
	}
	return buf.Bytes(), nil
}

// runPass runs spec once against the network store at store: locally as
// one Sweep on slots worker slots, or through runDistributed. profile,
// when non-empty, records a CPU profile of the pass to that file.
func runPass(ctx context.Context, spec geogossip.SweepSpec, store string, slots int, distributed bool, sinkDir, profile string) (*passResult, error) {
	res := &passResult{slots: slots}
	if distributed {
		res.slots = joinWorkers
	}
	before := readCounters()
	stopProfile := func() {}
	if profile != "" {
		stop, err := startProfile(profile)
		if err != nil {
			return nil, err
		}
		stopProfile = stop
	}
	start := time.Now()
	var (
		ss  stampSink
		err error
	)
	if distributed {
		err = runDistributed(ctx, spec, store, filepath.Join(sinkDir, "sink.jsonl"), res)
	} else {
		res.report, err = geogossip.Sweep(ctx, spec,
			geogossip.WithSweepWorkers(slots),
			geogossip.WithSweepBuildWorkers(1),
			geogossip.WithSweepNetworkDir(store),
			geogossip.WithSweepJSONL(&ss))
		if err != nil {
			err = fmt.Errorf("sweep: %w", err)
		}
	}
	res.wall = time.Since(start)
	after := readCounters()
	stopProfile()
	if err != nil {
		return nil, err
	}
	res.allocBytes = after.alloc - before.alloc
	res.gcCPU = after.gcCPU - before.gcCPU
	if !distributed {
		if res.sink, err = ss.canonical(); err != nil {
			return nil, err
		}
		last := start
		for _, t := range ss.stamps {
			res.spans = append(res.spans, t.Sub(last))
			last = t
		}
	}
	res.digest = sha256.Sum256(res.sink)
	return res, nil
}

// runDistributed runs spec through an in-process SweepServe coordinator on
// loopback and joinWorkers one-slot SweepJoin workers sharing the store. The
// coordinator writes the JSONL sink file at path, in canonical order; its
// bytes become res.sink.
func runDistributed(ctx context.Context, spec geogossip.SweepSpec, store, path string, res *passResult) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		ln.Close()
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		workerErrs []error
	)
	start := time.Now()
	for k := range joinWorkers {
		last := start
		progress := func(int, int) {
			now := time.Now()
			mu.Lock()
			res.spans = append(res.spans, now.Sub(last))
			mu.Unlock()
			last = now
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := geogossip.SweepJoin(ctx, ln.Addr().String(),
				geogossip.WithSweepWorkers(1),
				geogossip.WithSweepBuildWorkers(1),
				geogossip.WithSweepNetworkDir(store),
				geogossip.WithSweepWorkerName(fmt.Sprintf("w%d", k)),
				geogossip.WithSweepProgress(progress))
			if err != nil {
				mu.Lock()
				workerErrs = append(workerErrs, fmt.Errorf("worker %d: %w", k, err))
				mu.Unlock()
			}
		}()
	}
	reg := geogossip.NewMetricsRegistry()
	rep, serveErr := geogossip.SweepServe(ctx, ln, spec, geogossip.WithSweepJSONL(bw), geogossip.WithSweepMetrics(reg))
	if serveErr != nil {
		cancel()
	}
	wg.Wait()
	if serveErr != nil {
		return fmt.Errorf("serve: %w", serveErr)
	}
	if err := errors.Join(workerErrs...); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// Read the sink back as a user of the file would.
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	back, err := geogossip.ReadSweepResults(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("read sink: %w", err)
	}
	if len(back) != spec.TaskCount() {
		return fmt.Errorf("sink holds %d results, grid has %d tasks", len(back), spec.TaskCount())
	}
	res.report = rep
	res.reissued = reg.Values()["geogossip_dist_leases_reissued"]
	res.sink = raw
	return nil
}

type counters struct {
	alloc uint64
	gcCPU float64
}

func readCounters() counters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c counters
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.alloc = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[1].Value.Float64()
	}
	return c
}

// peakRSSBytes returns the process's peak resident set in bytes (VmHWM), or the
// memory obtained from the OS where /proc is unavailable.
func peakRSSBytes() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range bytes.Split(raw, []byte("\n")) {
			var kb float64
			if n, _ := fmt.Sscanf(string(line), "VmHWM: %f kB", &kb); n == 1 {
				return kb * 1024
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys)
}
