// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload for a fixed time and prints, as the last line of standard
// output, one JSON object with the run's verdict accounting and metrics:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (throughput, verdict
// latency, set-up time, peak RSS); with -trace 1 they are the per-layer
// attribution rows, measured on the same seeded inputs in a separate traced
// pass. The line before it is an "info" object: the environment record, the
// SHA-256 of the workload's inputs, the tail percentile used and its sample
// counts, and the first failures if any.
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	online-table3   the paper's Table 3 configuration in process
//	vyrdd-sessions  recorded logs streamed through a vyrdd child process
//	explore-races   PCT and DPOR schedule searches for planted races
//
// perfbench/run.sh builds this command and vyrdd from the source tree and
// runs it; the workload code only calls the packages' public functions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	vyrdd    string // path of the vyrdd binary (vyrdd-sessions)
	spansDir string // where the traced run writes its spans
	sizes    sizes
}

// sizes are the per-unit input sizes. The self-test shrinks them; the
// benchmark always runs fullSizes.
type sizes struct {
	onlineOps     int // online-table3: methods per application thread per session
	recordOps     int // vyrdd-sessions: methods per thread of each recorded log
	modularOps    int // vyrdd-sessions: methods per thread of the modular log
	exploreBudget int // explore-races and witnesses: schedule budget per search
	setupReps     int // set-ups per run; setup_s is their median
	attribReps    int // traced run: sessions per subject in the attribution pass
}

var fullSizes = sizes{
	onlineOps:     10000,
	recordOps:     1000,
	modularOps:    500,
	exploreBudget: 2000,
	setupReps:     9,
	attribReps:    3,
}

// runOverhead bounds a run's set-up, drain and attribution time beyond
// its measured seconds.
const runOverhead = 120 * time.Second

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (*outcome, error){
	"online-table3":  runOnline,
	"vyrdd-sessions": runSessions,
	"explore-races":  runExplore,
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload: online-table3, vyrdd-sessions or explore-races")
		seed     = fs.Int64("seed", 1, "workload seed; the same seed gives byte-identical inputs")
		seconds  = fs.Float64("seconds", 10, "measurement time in seconds")
		trace    = fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		vyrdd    = fs.String("vyrdd", "", "path of the vyrdd binary built from the tree under test")
		spans    = fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	opts := options{
		workload: *workload,
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		vyrdd:    *vyrdd,
		spansDir: *spans,
		sizes:    fullSizes,
	}
	env := recordEnv()
	// A unit that hangs (a stalled daemon, a lost verdict) must not hang
	// the benchmark: give up without a result well inside the 180 s a run
	// may take. The vyrdd child dies with this process (Pdeathsig).
	time.AfterFunc(opts.duration+runOverhead, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no result within %v\n", opts.workload, opts.duration+runOverhead)
		os.Exit(1)
	})
	out, err := runner(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", opts.workload, err)
		return 1
	}
	if err := printResult(os.Stdout, opts, env, out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run hands back for printing.
type outcome struct {
	acct    *accounting
	metrics map[string]metric
	// inputHash is the SHA-256 over the workload's inputs (hex).
	inputHash string
	// info carries workload-specific details for the info line: the tail
	// percentile and sample counts, tracing overhead, span file.
	info map[string]any
}

// endToEnd is the untraced run's metric set.
func endToEnd(setups []float64, methodsPerS, entriesPerS, rssMB float64) map[string]metric {
	return map[string]metric{
		"setup_s":       {median(setups), "s"},
		"methods_per_s": {methodsPerS, "1/s"},
		"entries_per_s": {entriesPerS, "1/s"},
		"peak_rss_mb":   {rssMB, "MB"},
	}
}

// finishTrace completes a traced run: the tracing overhead is the untraced
// half's throughput over the traced half's, the spans are written out, and
// the per-layer values become the metric set.
func (o *outcome) finishTrace(opts options, tr *tracer, untracedRate, tracedRate float64, vals map[string]float64) error {
	vals["trace.overhead_pct"] = 100 * (ratio(untracedRate, tracedRate) - 1)
	path, err := tr.write(opts.spansDir, opts.workload, opts.seed)
	if err != nil {
		return err
	}
	o.info["spans_file"] = path
	o.info["trace_overhead_pct"] = vals["trace.overhead_pct"]
	o.metrics = layerMetrics(vals)
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func printResult(w *os.File, opts options, env envRecord, out *outcome) error {
	info := map[string]any{
		"workload":     opts.workload,
		"seed":         opts.seed,
		"seconds":      opts.duration.Seconds(),
		"trace":        opts.trace,
		"env":          env,
		"input_sha256": out.inputHash,
		"failures":     out.acct.failures,
	}
	for k, v := range out.info {
		info[k] = v
	}
	line, err := json.Marshal(map[string]any{"info": info})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	res := result{
		Correct:   out.acct.correct(),
		Attempted: out.acct.attempted,
		Failed:    out.acct.failed,
		Metrics:   out.metrics,
	}
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
