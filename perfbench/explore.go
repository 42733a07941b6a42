package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/harness"
	"repro/internal/sched"
	"repro/vyrd"
)

// explore-races: PCT and DPOR schedule searches over every exploration and
// weak-memory subject's planted race, from the bench.ExploreSpec bases, each
// stopping at its first violation. One round is ten searches (five
// subjects x two strategies); rounds repeat for the whole run, two searches
// at a time. Round r's PCT
// searches start at seed base+seed*pctSeedStride+r*budget, so rounds cover
// disjoint seed ranges and one workload seed fixes every search; DPOR
// searches are deterministic from the base spec. The unit is a search; its
// verdict latency is the time to detection (the paper's Table 1).

const (
	// pctSeedStride separates the PCT seed ranges of workload seeds.
	pctSeedStride = 1_000_003
	// exploreTail is p95, not p99: a run completes about 1250 searches, so
	// p99 rests on about 12 samples, and its spread across seeds (25%) is
	// wider than any bound the benchmark may set.
	exploreTail = 0.95
	// exploreWorkers is how many searches run at once (one per CPU here).
	exploreWorkers = 2
)

var exploreStrategies = []string{"pct", sched.StrategyDPOR}

type exploreWorkload struct {
	opts     options
	subjects []bench.Subject
}

func newExploreWorkload(opts options) *exploreWorkload {
	return &exploreWorkload{opts: opts, subjects: append(bench.ExplorationSubjects(), bench.WeakMemorySubjects()...)}
}

// spec is the base spec of a search: PCT bases are offset by the workload
// seed and the round.
func (w *exploreWorkload) spec(s bench.Subject, strategy string, round int) sched.Spec {
	sp := bench.ExploreSpec(s.Name)
	if strategy == "pct" {
		sp.Seed += w.opts.seed*pctSeedStride + int64(round)*int64(w.opts.sizes.exploreBudget)
	}
	return sp
}

// inputHash covers every search of round 0 and the per-round seed offset.
func (w *exploreWorkload) inputHash() string {
	ih := newHasher()
	for _, s := range w.subjects {
		for _, strat := range exploreStrategies {
			ih.add(s.Name+"/"+strat, []byte(fmt.Sprintf("%s;budget=%d;round-stride=%d",
				w.spec(s, strat, 0).Repro(), w.opts.sizes.exploreBudget, w.opts.sizes.exploreBudget)))
		}
	}
	return ih.hex()
}

// verifier wraps explore.Refinement: it counts the entries it verifies and,
// in the traced run, times each call. Exploration calls it on the searching
// goroutine, one schedule at a time.
type verifier struct {
	entries int64
	verify  time.Duration
	sh      *traceShard
	parent  handle
	unit    string
}

func (v *verifier) fn() explore.Verifier {
	inner := explore.Refinement()
	return func(t harness.Target, entries []vyrd.Entry, diagnostics bool) (*core.Report, error) {
		v.entries += int64(len(entries))
		h := v.sh.begin("explore.Refinement", v.unit, v.parent)
		rep, err := inner(t, entries, diagnostics)
		v.verify += v.sh.end(h)
		return rep, err
	}
}

// searchResult is one search's outcome.
type searchResult struct {
	elapsed time.Duration
	stats   explore.Stats
	found   *explore.Found
	entries int64
	verify  time.Duration
}

// search runs one search and checks that it found the planted race within
// budget as a refinement violation.
func (w *exploreWorkload) search(s bench.Subject, strategy string, round int, sh *traceShard) (searchResult, error) {
	unit := s.Name + "/" + strategy + "/" + strconv.Itoa(round)
	top := sh.begin("explore.search", unit, root)
	defer sh.end(top)
	v := &verifier{sh: sh, parent: top, unit: unit}
	sp := w.spec(s, strategy, round)
	budget := w.opts.sizes.exploreBudget
	var res searchResult
	var err error
	start := time.Now()
	if strategy == sched.StrategyDPOR {
		h := sh.begin("explore.ExploreDPORWith", unit, top)
		res.found, res.stats, err = explore.ExploreDPORWith(s.Buggy, sp, budget, v.fn())
		sh.end(h)
	} else {
		h := sh.begin("explore.ExploreWith", unit, top)
		res.found, res.stats, err = explore.ExploreWith(s.Buggy, sp, budget, v.fn())
		sh.end(h)
	}
	res.elapsed = time.Since(start)
	res.entries = v.entries
	res.verify = v.verify
	if err != nil {
		return res, err
	}
	if res.found == nil {
		return res, fmt.Errorf("no violation within %d schedules", budget)
	}
	switch k := res.found.Run.FirstKind(); k {
	case core.ViolationIO, core.ViolationObserver, core.ViolationView, core.ViolationInvariant:
	default:
		return res, fmt.Errorf("found %s, want a refinement violation", k)
	}
	return res, nil
}

// setupExplore builds the workload and runs one warm-up search.
func setupExplore(opts options, acct *accounting) (*exploreWorkload, time.Duration) {
	start := time.Now()
	w := newExploreWorkload(opts)
	if _, err := w.search(w.subjects[0], sched.StrategyDPOR, 0, nil); err != nil {
		acct.fail("warm-up search: " + err.Error())
	}
	return w, time.Since(start)
}

type exploreTotals struct {
	schedules, methods, entries int64
	classes, pruned             int64
	schedulesToViolation        []float64
	elapsed, searchTime, verify time.Duration
	meter                       *meter
}

// measure runs searches from index first on exploreWorkers goroutines for
// d. Search k is item k%10 of round k/10.
func (w *exploreWorkload) measure(d time.Duration, first int64, tr *tracer, acct *accounting, lat *latencies) (exploreTotals, int64) {
	var (
		mu    sync.Mutex
		t     = exploreTotals{meter: newMeter()}
		next  atomic.Int64
		wg    sync.WaitGroup
		items = int64(len(w.subjects) * len(exploreStrategies))
	)
	next.Store(first)
	for c := 0; c < exploreWorkers; c++ {
		sh := tr.shard()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t.meter.since() < d {
				k := next.Add(1) - 1
				round, item := int(k/items), int(k%items)
				s := w.subjects[item/len(exploreStrategies)]
				strat := exploreStrategies[item%len(exploreStrategies)]
				res, err := w.search(s, strat, round, sh)
				acct.record(fmt.Sprintf("%s/%s round %d", s.Name, strat, round), err)
				if err != nil {
					continue
				}
				sp := w.spec(s, strat, round)
				methods := int64(res.stats.Schedules) * int64(sp.Threads*sp.Ops)
				lat.add(res.elapsed)
				t.meter.add(methods, res.entries)
				mu.Lock()
				t.schedules += int64(res.stats.Schedules)
				t.methods += methods
				t.entries += res.entries
				t.classes += int64(res.stats.Classes)
				t.pruned += int64(res.stats.Pruned)
				t.schedulesToViolation = append(t.schedulesToViolation, float64(res.found.SchedulesTried))
				t.searchTime += res.elapsed
				t.verify += res.verify
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	t.elapsed = t.meter.since()
	return t, next.Load()
}

func runExplore(opts options) (*outcome, error) {
	acct := &accounting{}
	reps := opts.sizes.setupReps
	if opts.trace {
		reps = 1
	}
	var (
		w      *exploreWorkload
		setups []float64
	)
	for i := 0; i < reps; i++ {
		var d time.Duration
		w, d = setupExplore(opts, acct)
		setups = append(setups, d.Seconds())
	}
	out := &outcome{acct: acct, inputHash: w.inputHash(), info: map[string]any{}}

	if !opts.trace {
		lat := &latencies{}
		rs, err := startRSS("self")
		if err != nil {
			return nil, err
		}
		t, _ := w.measure(opts.duration, 0, nil, acct, lat)
		rss, err := rs.finish()
		if err != nil {
			return nil, err
		}
		mps, eps := t.meter.rates(t.meter.groupWindows(len(w.subjects) * len(exploreStrategies)))
		out.metrics = endToEnd(setups, mps, eps, rss)
		latencyMetrics(out.metrics, out.info, lat, exploreTail)
		return out, nil
	}

	tr := newTracer()
	untraced, next := w.measure(opts.duration/2, 0, nil, acct, &latencies{})
	traced, _ := w.measure(opts.duration/2, next, tr, acct, &latencies{})
	schedules := float64(traced.schedules)
	vals := map[string]float64{
		"explore.schedules_to_violation": median(traced.schedulesToViolation),
		"explore.classes_per_schedule":   ratio(float64(traced.classes), schedules),
		"explore.pruned_per_schedule":    ratio(float64(traced.pruned), schedules),
		"explore.verify_ns_per_schedule": ratio(float64(traced.verify), schedules),
		"sched.run_ns_per_schedule":      ratio(float64(traced.searchTime-traced.verify), schedules),
	}
	err := out.finishTrace(opts, tr, perSecond(untraced.schedules, untraced.elapsed.Seconds()),
		perSecond(traced.schedules, traced.elapsed.Seconds()), vals)
	return out, err
}
