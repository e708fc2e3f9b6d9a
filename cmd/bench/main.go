// Command bench is graphspar's benchmark: five fixed-schedule workloads
// driven through the public surfaces (the graphspar facade, pcg, the
// in-process sparsifyd daemon), eight end-to-end metrics per workload with
// every output checked, and a separate -trace pass that records
// harness-side spans and layer probes for the per-layer ledger. README.md
// is the glossary; BENCHMARK.json at the repository root is the contract.
//
//	go run . -workload mesh_solve            one workload, result JSON on the last line
//	go run .                                 all five, one process each
//	go run . -trace 1 -report                per-layer ledger and self-time tables
//	go run . -check                          repeatability gate: two sets, spread table
//	go run . -runs 10                        medians and quartiles over 10 seeds
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupReps: set-up runs this many times and setup_s is the median, so one
// slow page-in does not read as a set-up regression.
const setupReps = 3

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	quick    bool
	report   bool
	check    bool
	runs     int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all, one process each)")
	flag.Uint64Var(&o.seed, "seed", 1, "schedule seed: right-hand sides and update schedules")
	flag.IntVar(&o.seconds, "seconds", refSeconds, "timed-region length the schedule is sized for on the reference box")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: quarter-length traced pass, per-layer metrics, trace.json")
	flag.BoolVar(&o.quick, "quick", false, "tiny sizes for tests; numbers are not comparable")
	flag.BoolVar(&o.report, "report", false, "with -trace 1: print the per-layer self-time table")
	flag.BoolVar(&o.check, "check", false, "run every workload twice and fail if the two sets disagree")
	flag.IntVar(&o.runs, "runs", 0, "run every workload this many times (seeds seed, seed+1, ...) and print medians and quartiles")
	flag.Parse()
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(workers, runtime.NumCPU()))
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	var err error
	switch {
	case o.check:
		err = runCheck(ctx, o, os.Stdout)
	case o.runs > 0:
		err = runMany(ctx, o, os.Stdout)
	case o.workload == "":
		err = runAll(ctx, o, os.Stdout)
	default:
		err = runOne(ctx, o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// value is one metric as printed.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a workload process's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

var errIncorrect = errors.New("a correctness check failed")

// runOne runs one workload in this process and prints its result line.
func runOne(ctx context.Context, o options, out io.Writer) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := measure(ctx, w, o, out)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// measure is the whole life of one workload process.
func measure(ctx context.Context, w workloadDef, o options, out io.Writer) (result, error) {
	if o.trace == 1 {
		return measureTraced(ctx, w, o, out)
	}
	ops := w.opCount(o.seconds, o.quick)

	// Set-up, setupReps times; the last instance is the one measured.
	var inst instance
	var setups []float64
	var schedule string
	for r := 0; r < setupReps; r++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		next, err := w.setup(ctx, o.seed, ops, o.quick)
		if err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = next
		if schedule != "" && inst.scheduleHash() != schedule {
			inst.close()
			return result{}, fmt.Errorf("%s: same seed gave two different schedules", w.name)
		}
		schedule = inst.scheduleHash()
	}
	defer inst.close()
	if w.batch {
		runtime.GC()
	}

	run := runOps(ctx, w, inst, ops, nil, nil)
	failures := run.failed()
	firstErr := run.firstErr()

	res := result{Attempted: len(run.samples), Failed: failures, Metrics: map[string]value{}}
	lat := run.latencies()
	if len(lat) == 0 {
		return res, fmt.Errorf("%s: every op failed, first: %w", w.name, firstErr)
	}
	pairs, err := inst.finish(ctx)
	var q quality
	if err == nil {
		q, err = measureQuality(pairs, o.seed)
	}
	if err != nil {
		// A failed end-of-run check fails the run, not one op.
		return res, fmt.Errorf("%s: %w", w.name, err)
	}

	p50 := median(lat)
	// The highest percentile up to p90 that has ten samples beyond it; a
	// batch workload's dozen ops support none, so it reads the median
	// there rather than a tail of one sample.
	p90, perr := percentile(lat, 0.90)
	if perr != nil {
		p90 = p50
	}
	vals := map[string]float64{
		"setup_s":        median(setups),
		"op_p50_ms":      p50,
		"op_p90_ms":      p90,
		"ops_per_s":      float64(len(lat)) / run.wallS,
		"cond_ratio":     q.condRatio,
		"edges_per_node": q.edgesPerNode,
		"pcg_iters":      float64(q.pcgIters),
		"peak_rss_mb":    peakRSSMB(),
	}
	fmt.Fprintf(out, "workload %s seed %d ops %d clients %d schedule %s failed %d\n", w.name, o.seed, len(run.samples), inst.clients(), schedule, failures)
	emit(out, endToEnd, vals, res.Metrics)
	if w.batch {
		fmt.Fprintf(out, "op latencies ms: %.0f\n", lat)
		fmt.Fprintf(out, "set-ups s: %.2f\n", setups)
	}
	if firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", firstErr)
	}
	res.Correct = failures == 0
	return res, nil
}

// measureTraced is the -trace 1 pass: a quarter-length schedule run twice
// over, untraced and traced ops interleaved in blocks (off, on, on, off, so
// neither side is always first and a linear drift cancels; blocks of two
// so that on serve_txn both sides see both wire formats), then the layer
// probes.
func measureTraced(ctx context.Context, w workloadDef, o options, out io.Writer) (result, error) {
	blk := 2
	if w.batch {
		blk = 1
	}
	quarter := (w.opCount(o.seconds, o.quick) + 3) / 4
	ops := (2*quarter + 2*blk - 1) / (2 * blk) * (2 * blk)
	inst, err := w.setup(ctx, o.seed, ops, o.quick)
	if err != nil {
		return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	defer inst.close()

	tr := newTracer()
	traced := func(i int) bool { k := (i / blk) % 4; return k == 1 || k == 2 }
	run := runOps(ctx, w, inst, ops, tr, traced)
	res := result{Attempted: len(run.samples), Failed: run.failed(), Metrics: map[string]value{}}
	if err := run.firstErr(); err != nil {
		return res, fmt.Errorf("%s: %w", w.name, err)
	}
	pairs, err := inst.finish(ctx)
	if err != nil {
		return res, fmt.Errorf("%s: %w", w.name, err)
	}

	var on, off []float64
	for _, s := range run.samples {
		if traced(s.index) {
			on = append(on, s.ms)
		} else {
			off = append(off, s.ms)
		}
	}
	vals := map[string]float64{}
	if err := probeLayers(ctx, pairs[0], inst.regenerate, o.seed, vals); err != nil {
		return res, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := inst.layers(ctx, tr.spans, vals); err != nil {
		return res, fmt.Errorf("%s: %w", w.name, err)
	}
	vals["trace.stage_coverage_share"] = stageCoverage(tr.spans)
	vals["trace.overhead_share"] = median(on)/median(off) - 1

	fmt.Fprintf(out, "workload %s seed %d traced ops %d of %d schedule %s\n", w.name, o.seed, len(on), len(run.samples), inst.scheduleHash())
	emit(out, perLayer, vals, res.Metrics)
	if err := writeTrace("trace.json", w.name, o.seed, tr.spans); err != nil {
		return res, err
	}
	if o.report {
		layerReport(out, w.name, tr.spans, vals["trace.stage_coverage_share"], vals["trace.overhead_share"])
	}
	res.Correct = true
	return res, nil
}

// emit prints every declared metric by name with its unit and fills the
// result line's map.
func emit(out io.Writer, defs []metricDef, vals map[string]float64, into map[string]value) {
	for _, d := range defs {
		v := vals[d.Name]
		fmt.Fprintf(out, "%-34s %s %s\n", d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
		into[d.Name] = value{v, d.Unit}
	}
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64) // "  123456 kB"
			return kb / 1024
		}
	}
	return 0
}

// child re-executes this binary for one workload, so peak_rss_mb and every
// heap-shaped effect is per workload, and returns its parsed result line.
func child(ctx context.Context, o options, name string, seed uint64, trace int, echo io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(o.seconds), "-trace", strconv.Itoa(trace)}
	if o.quick {
		args = append(args, "-quick")
	}
	if o.report {
		args = append(args, "-report")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if echo != nil {
		echo.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
		fmt.Fprintln(echo)
	}
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return res, fmt.Errorf("%s: %w", name, runErr)
		}
		return res, fmt.Errorf("%s: no result line: %w", name, err)
	}
	if runErr != nil || !res.Correct {
		return res, fmt.Errorf("%s: %w", name, errIncorrect)
	}
	return res, nil
}

// runAll runs the five workloads, one process each, echoing their output.
func runAll(ctx context.Context, o options, out io.Writer) error {
	var failed []string
	for _, w := range workloads {
		if _, err := child(ctx, o, w.name, o.seed, o.trace, out); err != nil {
			fmt.Fprintln(out, err)
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// runMany prints, per workload and end-to-end metric, the median and
// quartiles over -runs seeds and their spread (IQR ÷ median) beside the
// metric's bound — the table the README baseline is made from.
func runMany(ctx context.Context, o options, out io.Writer) error {
	for _, w := range workloads {
		if o.workload != "" && o.workload != w.name {
			continue
		}
		series := map[string][]float64{}
		for r := 0; r < o.runs; r++ {
			res, err := child(ctx, o, w.name, o.seed+uint64(r), 0, nil)
			if err != nil {
				return err
			}
			for k, v := range res.Metrics {
				series[k] = append(series[k], v.Value)
			}
		}
		fmt.Fprintf(out, "\n%s, %d runs, seeds %d..%d\n", w.name, o.runs, o.seed, o.seed+uint64(o.runs)-1)
		fmt.Fprintf(out, "%-16s %-10s %12s %12s %12s %8s %6s\n", "metric", "unit", "q1", "median", "q3", "spread", "bound")
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(series[d.Name])
			fmt.Fprintf(out, "%-16s %-10s %12.5g %12.5g %12.5g %7.2f%% %5.0f%%\n", d.Name, d.Unit, q1, q2, q3, 100*spread(series[d.Name]), 100*d.Bound)
		}
	}
	return nil
}
