package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/racecheck"
)

// The self-test runs every workload at a tiny size. Run it from this
// directory with `go test ./...`; it builds vyrdd into a temporary
// directory.

var tinySizes = sizes{
	onlineOps:     200,
	recordOps:     40,
	modularOps:    20,
	exploreBudget: 2000,
	setupReps:     2,
	attribReps:    1,
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	opts := options{
		workload: workload,
		seed:     3,
		duration: 300 * time.Millisecond,
		trace:    trace,
		spansDir: t.TempDir(),
		sizes:    tinySizes,
	}
	if workload == "vyrdd-sessions" {
		opts.vyrdd = buildVyrdd(t)
	}
	return opts
}

var vyrddPath string

// buildVyrdd builds cmd/vyrdd once per test binary.
func buildVyrdd(t *testing.T) string {
	t.Helper()
	if vyrddPath != "" {
		return vyrddPath
	}
	dir, err := os.MkdirTemp("", "perfbench-vyrdd")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "vyrdd")
	cmd := exec.Command("go", "build", "-o", path, "repro/cmd/vyrdd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building vyrdd: %v\n%s", err, out)
	}
	vyrddPath = path
	return path
}

func TestMain(m *testing.M) {
	code := m.Run()
	if vyrddPath != "" {
		os.RemoveAll(filepath.Dir(vyrddPath))
	}
	os.Exit(code)
}

// declared is the metric set BENCHMARK.json names.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWorkloadsEmitDeclaredMetrics runs each declared workload untraced
// and traced, and checks that every declared metric comes out with its
// unit, every verdict matched and the end-to-end figures are nonzero.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the command runs %d", len(d.Workloads), len(workloads))
	}
	for _, w := range d.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			runner, ok := workloads[w.Name]
			if !ok {
				t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
			}
			if w.Name != "online-table3" {
				skipPlantedRaces(t)
			}
			for _, trace := range []bool{false, true} {
				checkMetrics(t, d, w.Name, trace, runner)
			}
		})
	}
}

// skipPlantedRaces skips a test that runs the planted-bug subjects under
// the race detector: their bugs are intentional data races (see
// internal/racecheck). explore-races searches them, and vyrdd-sessions
// records their race witnesses.
func skipPlantedRaces(t *testing.T) {
	t.Helper()
	if racecheck.Enabled {
		t.Skip("runs the planted-bug subjects, whose bugs are intentional data races")
	}
}

func checkMetrics(t *testing.T, d declared, workload string, trace bool, runner func(options) (*outcome, error)) {
	t.Helper()
	out, err := runner(tinyOptions(t, workload, trace))
	if err != nil {
		t.Fatalf("trace=%t: %v", trace, err)
	}
	if !out.acct.correct() || out.acct.failed != 0 {
		t.Errorf("trace=%t: %d/%d failed: %v", trace, out.acct.failed, out.acct.attempted, out.acct.failures)
	}
	want := d.EndToEnd
	if trace {
		want = d.PerLayer
	}
	if len(out.metrics) != len(want) {
		t.Errorf("trace=%t: %d metrics, BENCHMARK.json declares %d", trace, len(out.metrics), len(want))
	}
	for _, m := range want {
		got, ok := out.metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("trace=%t: metric %s missing", trace, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("trace=%t: metric %s has unit %q, BENCHMARK.json says %q", trace, m.Name, got.Unit, m.Unit)
		case !trace && got.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
		}
	}
}

// TestWrongExpectationIsAFailure plants a wrong expected verdict for one
// race witness and checks that its sessions are counted as failed.
func TestWrongExpectationIsAFailure(t *testing.T) {
	skipPlantedRaces(t)
	const witness = "Seqlock-TornRead"
	saved := witnessKinds[witness]
	witnessKinds[witness] = core.ViolationView
	defer func() { witnessKinds[witness] = saved }()

	out, err := runSessions(tinyOptions(t, "vyrdd-sessions", false))
	if err != nil {
		t.Fatal(err)
	}
	if out.acct.failed == 0 || out.acct.correct() {
		t.Fatalf("wrong expectation not counted: %d/%d failed, correct=%t", out.acct.failed, out.acct.attempted, out.acct.correct())
	}
}

// TestJudge pins the verdict comparison itself.
func TestJudge(t *testing.T) {
	violating := &core.Report{TotalViolations: 1, Violations: []core.Violation{{Kind: core.ViolationObserver}}}
	for _, c := range []struct {
		want expectation
		rep  *core.Report
		ok   bool
	}{
		{clean, &core.Report{}, true},
		{clean, violating, false},
		{expectation{kind: core.ViolationObserver}, violating, true},
		{expectation{kind: core.ViolationView}, violating, false},
		{expectation{kind: core.ViolationObserver}, &core.Report{}, false},
		{clean, nil, false},
	} {
		if err := judge(c.want, c.rep); (err == nil) != c.ok {
			t.Errorf("judge(%s, %v) = %v, want ok=%t", c.want, c.rep, err, c.ok)
		}
	}
}

// TestSameSeedSameInputs records every workload's inputs twice with one
// seed and checks the hashes agree, and differ for another seed.
func TestSameSeedSameInputs(t *testing.T) {
	skipPlantedRaces(t)
	record := func(seed int64) string {
		ins, err := recordInputs(seed, tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		return hashInputs(ins)
	}
	if a, b := record(5), record(5); a != b {
		t.Errorf("vyrdd-sessions: seed 5 recorded %s then %s", a, b)
	}
	if a, b := record(5), record(6); a == b {
		t.Errorf("vyrdd-sessions: seeds 5 and 6 recorded the same inputs %s", a)
	}

	opts := options{seed: 5, sizes: tinySizes}
	other := options{seed: 6, sizes: tinySizes}
	on, err := newOnlineWorkload(opts)
	if err != nil {
		t.Fatal(err)
	}
	on2, _ := newOnlineWorkload(opts)
	on3, _ := newOnlineWorkload(other)
	if on.inputHash() != on2.inputHash() || on.inputHash() == on3.inputHash() {
		t.Errorf("online-table3: input hashes do not follow the seed")
	}
	ex, ex2, ex3 := newExploreWorkload(opts), newExploreWorkload(opts), newExploreWorkload(other)
	if ex.inputHash() != ex2.inputHash() || ex.inputHash() == ex3.inputHash() {
		t.Errorf("explore-races: input hashes do not follow the seed")
	}
}
