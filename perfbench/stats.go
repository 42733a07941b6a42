package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
)

// accounting counts units attempted and failed, and keeps the first few
// failure messages for the info line. A unit fails on an error, a timeout
// or a verdict that does not match its expectation.
type accounting struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	failures  []string
	// broken marks a run whose inputs or set-up were wrong as a whole (for
	// instance two set-ups that recorded different inputs for one seed).
	broken bool
}

const maxFailureNotes = 8

func (a *accounting) record(unit string, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attempted++
	if err != nil {
		a.failed++
		a.note(fmt.Sprintf("%s: %v", unit, err))
	}
}

// fail marks the whole run incorrect.
func (a *accounting) fail(what string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.broken = true
	a.note(what)
}

func (a *accounting) note(s string) {
	if len(a.failures) < maxFailureNotes {
		a.failures = append(a.failures, s)
	}
}

func (a *accounting) correct() bool { return a.failed == 0 && !a.broken && a.attempted > 0 }

// expectation is the verdict a unit must come back with: clean, or a
// violation of the given kind first.
type expectation struct {
	ok   bool
	kind core.ViolationKind
}

func (x expectation) String() string {
	if x.ok {
		return "ok"
	}
	return x.kind.String()
}

// clean is the expectation of every unit recorded from a correct subject.
var clean = expectation{ok: true}

// judge compares a report against the expectation.
func judge(want expectation, rep *core.Report) error {
	if rep == nil {
		return fmt.Errorf("no verdict")
	}
	if want.ok {
		if !rep.Ok() {
			return fmt.Errorf("want ok, got %s", verdictString(rep))
		}
		return nil
	}
	if rep.Ok() || len(rep.Violations) == 0 {
		return fmt.Errorf("want %s, got %s", want, verdictString(rep))
	}
	if got := rep.Violations[0].Kind; got != want.kind {
		return fmt.Errorf("want %s, got %s", want, got)
	}
	return nil
}

func verdictString(rep *core.Report) string {
	switch {
	case rep.LogErr != "":
		return "log error: " + rep.LogErr
	case len(rep.Violations) > 0:
		return rep.Violations[0].Kind.String()
	case rep.TotalViolations > 0:
		return fmt.Sprintf("%d violations", rep.TotalViolations)
	}
	return "ok"
}

// latencies collects per-unit verdict latencies.
type latencies struct {
	mu sync.Mutex
	ms []float64
}

func (l *latencies) add(d time.Duration) {
	l.mu.Lock()
	l.ms = append(l.ms, float64(d)/float64(time.Millisecond))
	l.mu.Unlock()
}

func (l *latencies) values() []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.ms...)
}

// quantile returns the nearest-rank p-quantile (0 < p <= 1) of xs and how
// many samples lie above its rank.
func quantile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank], len(s) - 1 - rank
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencyMetrics reports the median and the tail percentile of the
// collected verdict latencies, and records in info how many samples the
// tail rests on. tail is the workload's fixed percentile (0.9 = p90).
func latencyMetrics(m map[string]metric, info map[string]any, l *latencies, tail float64) {
	xs := l.values()
	p50, _ := quantile(xs, 0.5)
	pt, beyond := quantile(xs, tail)
	m["verdict_p50_ms"] = metric{p50, "ms"}
	m["verdict_tail_ms"] = metric{pt, "ms"}
	info["verdict_tail_percentile"] = tail * 100
	info["verdict_samples"] = len(xs)
	info["verdict_samples_beyond_tail"] = beyond
}

// peakRSSMB reads VmHWM (peak resident set size) of a process from
// /proc/<pid>/status, in MB. pid may be "self".
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// rssWindow is the window of peak-RSS sampling.
const rssWindow = time.Second

// rssSampler measures peak RSS per window of a process: every rssWindow it
// reads the process's VmHWM and then resets it (writing 5 to
// /proc/<pid>/clear_refs), so each sample is the peak of one window. The
// reported figure is the median window peak: one allocation spike moves one
// window, not the figure.
type rssSampler struct {
	pid   string
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// startRSS resets the process's peak and starts sampling.
func startRSS(pid string) (*rssSampler, error) {
	if err := resetPeakRSS(pid); err != nil {
		return nil, fmt.Errorf("resetting peak RSS: %w", err)
	}
	s := &rssSampler{pid: pid, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssWindow)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				if err := s.sample(); err != nil {
					s.err = err
					return
				}
			}
		}
	}()
	return s, nil
}

func (s *rssSampler) sample() error {
	mb, err := peakRSSMB(s.pid)
	if err != nil {
		return err
	}
	s.peaks = append(s.peaks, mb)
	return resetPeakRSS(s.pid)
}

// finish stops sampling and returns the median window peak in MB. A run
// shorter than one window reports the peak since the start.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, s.err
	}
	if len(s.peaks) == 0 {
		if err := s.sample(); err != nil {
			return 0, err
		}
	}
	return median(s.peaks), nil
}

// inputHasher folds a sequence of labelled byte strings into one SHA-256.
type inputHasher struct{ h []byte }

func newHasher() *inputHasher { return &inputHasher{} }

func (ih *inputHasher) add(label string, data []byte) {
	s := sha256.New()
	s.Write(ih.h)
	fmt.Fprintf(s, "%s\x00%d\x00", label, len(data))
	s.Write(data)
	ih.h = s.Sum(nil)
}

func (ih *inputHasher) hex() string { return hex.EncodeToString(ih.h) }

// envRecord is the environment every result records.
type envRecord struct {
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
	SourceHash string  `json:"source_sha256"`
	LoadAvg1   float64 `json:"load_avg_1m"`
	LoadAvg5   float64 `json:"load_avg_5m"`
	StartedAt  string  `json:"started_at"`
}

func recordEnv() envRecord {
	env := envRecord{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     gitCommit("."),
		SourceHash: sourceHash("."),
		StartedAt:  time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		f := strings.Fields(string(b))
		if len(f) >= 2 {
			env.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
			env.LoadAvg5, _ = strconv.ParseFloat(f[1], 64)
		}
	}
	return env
}

// gitCommit resolves HEAD by reading .git directly; a checkout without git
// metadata records that instead (sourceHash still identifies the tree).
func gitCommit(root string) string {
	const none = "none (not a git checkout)"
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return none
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return none
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return none
}

// sourceHash is the SHA-256 over every Go source and module file of the
// tree (path and content, in path order), skipping build output and VCS
// metadata, so a result names the exact code it measured.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	ih := newHasher()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		ih.add(filepath.ToSlash(p), b)
	}
	return ih.hex()
}

// meter records unit completions (time, methods, entries) so throughput
// can be reported as the median rate over windows of the measured
// interval: a burst of outside load then moves one window, not the figure.
type meter struct {
	mu      sync.Mutex
	start   time.Time
	at      []time.Duration
	methods []int64
	entries []int64
}

func newMeter() *meter { return &meter{start: time.Now()} }

func (m *meter) add(methods, entries int64) {
	m.mu.Lock()
	m.at = append(m.at, time.Since(m.start))
	m.methods = append(m.methods, methods)
	m.entries = append(m.entries, entries)
	m.mu.Unlock()
}

// since returns the time since the meter started.
func (m *meter) since() time.Duration { return time.Since(m.start) }

// rates returns the median methods/s and entries/s over the windows that
// end at bounds (ascending; the first window starts at 0). A unit counts
// in the window its completion falls in; completions after the last bound
// are not counted.
func (m *meter) rates(bounds []time.Duration) (methodsPerS, entriesPerS float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var mr, er []float64
	j := 0
	prev := time.Duration(0)
	for _, b := range bounds {
		var nm, ne int64
		for ; j < len(m.at) && m.at[j] <= b; j++ {
			nm += m.methods[j]
			ne += m.entries[j]
		}
		if secs := (b - prev).Seconds(); secs > 0 {
			mr = append(mr, float64(nm)/secs)
			er = append(er, float64(ne)/secs)
		}
		prev = b
	}
	return median(mr), median(er)
}

// groupWindows returns the window bounds that close every n completions:
// each window holds n whole units, so its rate is not quantized by units
// straddling a fixed time boundary. Fewer than n completions make one
// window ending at the last completion.
func (m *meter) groupWindows(n int) []time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	var bounds []time.Duration
	for k := n - 1; k < len(m.at); k += n {
		bounds = append(bounds, m.at[k])
	}
	if len(bounds) == 0 && len(m.at) > 0 {
		bounds = append(bounds, m.at[len(m.at)-1])
	}
	return bounds
}
