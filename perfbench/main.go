// Command perfbench is the repository's end-to-end benchmark. One process
// runs one workload for a fixed window and prints one JSON result line:
//
//	go build -o perfbench . && ./perfbench -workload suite -seed 1 -seconds 20 -trace 0
//
// Workloads (see README.md for why each exists):
//
//   - suite: the ten Table I circuits at their paper grids, planned by the
//     rabid engine through library calls (backend.Plan), pass after pass.
//   - serve-hit: an in-process rabidd handler on a loopback listener, two
//     closed-loop clients, every request a cache hit on a warmed working set.
//   - serve-miss: the same server and clients, every request a distinct
//     circuit, engines rotating rabid / rabid+lib / mcf.
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// runs an untraced and a traced pass and carries the per-layer metrics, and
// the traced pass's spans are written under -out.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes: 0 a result was printed, 1 the run failed, 2 bad usage, 3 the
// pass could not support its metrics (see errInvalidPass).
const (
	exitFail    = 1
	exitUsage   = 2
	exitInvalid = 3
)

// errInvalidPass marks a pass whose samples cannot support the metrics it
// must report (too few samples beyond the tail percentile, or a quality
// prefix the pass did not reach). Such a pass is reported, not printed.
var errInvalidPass = errors.New("invalid pass")

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: feeds the floorplan generator of every input circuit")
	seconds := fs.Float64("seconds", 20, "length of the timed pass in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics and spans")
	out := fs.String("out", ".bench_build", "directory for trace files")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	cfg, ok := defaultConfig(*workload)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: usage: -workload {%s} -seed N -seconds S -trace {0|1}\n",
			strings.Join(workloadNames(), "|"))
		return exitUsage
	}
	cfg.seed = *seed
	cfg.window = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1
	if cfg.trace {
		cfg.traceFile = filepath.Join(*out, "perfbench-trace", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	}

	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		if errors.Is(err, errInvalidPass) {
			return exitInvalid
		}
		return exitFail
	}
	if err := rep.checkFinite(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return exitFail
	}
	info, err := json.Marshal(map[string]any{"perfbench": rep.info})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode info: %v\n", err)
		return exitFail
	}
	res, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return exitFail
	}
	fmt.Fprintf(stdout, "%s\n%s\n", info, res)
	return 0
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a finished run: the result line plus context printed before it.
type report struct {
	result result
	info   map[string]any
}

func newReport(cfg config) *report {
	return &report{
		result: result{Metrics: map[string]metric{}},
		info: map[string]any{
			"workload":   cfg.workload,
			"seed":       cfg.seed,
			"seconds":    cfg.window.Seconds(),
			"trace":      cfg.trace,
			"nproc":      runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"cpu":        cpuModel(),
		},
	}
}

func (r *report) set(name string, v float64, unit string) {
	r.result.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) checkFinite() error {
	for name, m := range r.result.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite (%v)", name, m.Value)
		}
	}
	if r.result.Attempted < 1 {
		return errors.New("no op attempted")
	}
	return nil
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
