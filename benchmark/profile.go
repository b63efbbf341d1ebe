package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// layers are the repository's packages that a profile sample can be
// charged to, plus runtime for samples with no repository frame. The
// facade package is "geogossip"; internal/sweep/dist is "dist" and
// internal/snap counts to "netstore", whose file format it is.
var layers = []string{
	"geogossip", "sweep", "dist", "netstore", "graph", "geo", "hier", "routing",
	"channel", "sim", "rng", "gossip", "core", "metrics", "obs", "trace", "par",
	"stats", "runtime",
}

func startProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// taskFrame is the sweep function that runs one task, on a local pool slot
// and on a distributed worker alike.
const taskFrame = "geogossip/internal/sweep.executeWith"

// profileSplit is what a CPU profile says about a pass, in CPU seconds:
// self charges every sample to one layer; inside charges it to every
// function of its stack, once each.
type profileSplit struct {
	self   map[string]float64
	inside map[string]float64
}

// readProfile splits the CPU profile at path as printed by
// `go tool pprof -traces`. A sample counts to the layer of its innermost
// frame in a geogossip package, so standard-library frames count to their
// repository caller (math/rand/v2 to rng).
func readProfile(ctx context.Context, path string) (profileSplit, error) {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	var stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-traces", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return profileSplit{}, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(out)
}

// parseTraces reads `pprof -traces` output: blocks separated by dashed
// lines, each opening with the sample value and the innermost frame,
// followed by one caller frame per line.
func parseTraces(out []byte) (profileSplit, error) {
	p := profileSplit{self: make(map[string]float64), inside: make(map[string]float64)}
	var (
		value   float64
		layer   string
		inTrace bool
		stack   = make(map[string]bool)
	)
	flush := func() {
		if inTrace {
			if layer == "" {
				layer = "runtime"
			}
			p.self[layer] += value
			for fn := range stack {
				p.inside[fn] += value
			}
		}
		inTrace, layer = false, ""
		clear(stack)
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		frame := fields[0]
		if !inTrace {
			// The first line of a block carries the sample value.
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				continue // header lines before the first block
			}
			value, inTrace = d.Seconds(), true
			frame = fields[1]
		}
		stack[frame] = true
		if layer == "" {
			layer = layerOf(frame)
		}
	}
	flush()
	return p, sc.Err()
}

// layerOf maps a function name to its layer, or "" outside the repository.
func layerOf(fn string) string {
	if fn != "geogossip" && !strings.HasPrefix(fn, "geogossip.") && !strings.HasPrefix(fn, "geogossip/") {
		return ""
	}
	pkg := fn
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch pkg {
	case "geogossip":
		return "geogossip"
	case "geogossip/internal/sweep/dist":
		return "dist"
	case "geogossip/internal/snap":
		return "netstore"
	}
	name := pkg[strings.LastIndex(pkg, "/")+1:]
	for _, l := range layers {
		if l == name {
			return name
		}
	}
	// Packages off the run path (experiments, tables) count to the facade.
	return "geogossip"
}
