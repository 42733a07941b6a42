package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/vyrd"
)

// online-table3: the paper's Table 3 configuration in process. Sessions run
// back to back over the Table 3 subjects, round-robin; session i runs the
// correct implementation with 2 application threads x onlineOps methods and
// harness seed seed+i, logging at view level into a window-bounded log
// (bench.DefaultLogPipelineConfig's window and segment size) while the
// online view checker consumes it. The unit is a session; its verdict
// latency runs from the program's last method returning to the report.

var onlineSubjectNames = []string{"java.util.Vector", "java.util.StringBuffer", "BLinkTree", "Cache"}

const (
	onlineThreads = 2
	onlineKeyPool = 16
	// onlineTail is the tail percentile of online-table3's verdict latency.
	onlineTail = 0.99
	// onlineWindow is the sessions per throughput window: four rotations.
	onlineWindow = 16
)

type onlineWorkload struct {
	opts     options
	subjects []bench.Subject
	lopts    vyrd.LogOptions
}

func newOnlineWorkload(opts options) (*onlineWorkload, error) {
	w := &onlineWorkload{opts: opts}
	for _, name := range onlineSubjectNames {
		s, ok := bench.SubjectByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown subject %s", name)
		}
		w.subjects = append(w.subjects, s)
	}
	pc := bench.DefaultLogPipelineConfig()
	w.lopts = vyrd.LogOptions{SegmentSize: pc.SegmentSize, Window: pc.Window}
	return w, nil
}

// config is the harness configuration of session i.
func (w *onlineWorkload) config(i int, level vyrd.Level, lopts vyrd.LogOptions) harness.Config {
	return harness.Config{
		Threads:      onlineThreads,
		OpsPerThread: w.opts.sizes.onlineOps,
		KeyPool:      onlineKeyPool,
		Shrink:       true,
		Seed:         w.opts.seed + int64(i),
		Level:        level,
		LogOptions:   lopts,
	}
}

func (w *onlineWorkload) subject(i int) bench.Subject { return w.subjects[i%len(w.subjects)] }

// inputHash identifies the session inputs: the subject rotation and every
// harness parameter, with the seed formula.
func (w *onlineWorkload) inputHash() string {
	ih := newHasher()
	for i := range w.subjects {
		cfg := w.config(i, vyrd.LevelView, w.lopts)
		ih.add("session", []byte(fmt.Sprintf("subject=%s;threads=%d;ops=%d;pool=%d;shrink=%t;seed=%d+i;window=%d;segment=%d",
			w.subject(i).Name, cfg.Threads, cfg.OpsPerThread, cfg.KeyPool, cfg.Shrink, w.opts.seed,
			w.lopts.Window, w.lopts.SegmentSize)))
	}
	return ih.hex()
}

type onlineSession struct {
	methods int64
	entries int64
	wall    time.Duration // program start to verdict
	latency time.Duration // last method return to verdict
	stats   vyrd.LogStats
	report  *core.Report
}

// session runs session i with the online checker attached.
func (w *onlineWorkload) session(i int, sh *traceShard) (onlineSession, error) {
	s := w.subject(i)
	unit := "session-" + strconv.Itoa(i)
	top := sh.begin("online.session", unit, root)
	defer sh.end(top)

	cfg := w.config(i, vyrd.LevelView, w.lopts)
	log := vyrd.NewLogWith(cfg.Level, cfg.LogOptions)
	h := sh.begin("vyrd.Log.StartChecker", unit, top)
	wait, err := log.StartChecker(s.Correct.NewSpec(),
		vyrd.WithMode(vyrd.ModeView), vyrd.WithReplayer(s.Correct.NewReplayer()))
	sh.end(h)
	if err != nil {
		return onlineSession{}, err
	}
	start := time.Now()
	h = sh.begin("harness.RunOnLog", unit, top)
	res := harness.RunOnLog(s.Correct, cfg, log)
	sh.end(h)
	h = sh.begin("core.Checker.Run", unit, top)
	rep := wait()
	sh.end(h)
	done := time.Now()
	h = sh.begin("wal.Log.Stats", unit, top)
	stats := log.Stats()
	sh.end(h)
	return onlineSession{
		methods: res.Methods,
		entries: stats.Appends,
		wall:    done.Sub(start),
		latency: done.Sub(start.Add(res.Elapsed)),
		stats:   stats,
		report:  rep,
	}, nil
}

// setupOnline builds the workload and runs one warm-up session; it returns
// the workload and the set-up time.
func setupOnline(opts options, acct *accounting) (*onlineWorkload, time.Duration, error) {
	start := time.Now()
	w, err := newOnlineWorkload(opts)
	if err != nil {
		return nil, 0, err
	}
	s, err := w.session(0, nil)
	if err != nil {
		return nil, 0, err
	}
	if err := judge(clean, s.report); err != nil {
		acct.fail("warm-up session: " + err.Error())
	}
	return w, time.Since(start), nil
}

// loopTotals is what one measured loop did.
type loopTotals struct {
	methods, entries int64
	elapsed          time.Duration
	meter            *meter
	// stats are the sessions' log counters (kept instead of the sessions:
	// a report retains its checker's state).
	stats []vyrd.LogStats
}

// measure runs sessions back to back from index first for d and checks
// every verdict. It returns the totals and the next session index.
func (w *onlineWorkload) measure(d time.Duration, first int, sh *traceShard, acct *accounting, lat *latencies) (loopTotals, int) {
	t := loopTotals{meter: newMeter()}
	i := first
	for ; t.meter.since() < d; i++ {
		s, err := w.session(i, sh)
		if err == nil {
			err = judge(clean, s.report)
		}
		if err == nil && s.methods != int64(onlineThreads*w.opts.sizes.onlineOps) {
			err = fmt.Errorf("ran %d methods, want %d", s.methods, onlineThreads*w.opts.sizes.onlineOps)
		}
		acct.record(fmt.Sprintf("session %d (%s)", i, w.subject(i).Name), err)
		if err != nil {
			continue
		}
		t.methods += s.methods
		t.entries += s.entries
		t.stats = append(t.stats, s.stats)
		t.meter.add(s.methods, s.entries)
		lat.add(s.latency)
	}
	t.elapsed = t.meter.since()
	return t, i
}

func runOnline(opts options) (*outcome, error) {
	acct := &accounting{}
	reps := opts.sizes.setupReps
	if opts.trace {
		reps = 1
	}
	var (
		w      *onlineWorkload
		setups []float64
	)
	for r := 0; r < reps; r++ {
		var d time.Duration
		var err error
		if w, d, err = setupOnline(opts, acct); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	out := &outcome{acct: acct, inputHash: w.inputHash(), info: map[string]any{}}

	if !opts.trace {
		lat := &latencies{}
		rs, err := startRSS("self")
		if err != nil {
			return nil, err
		}
		t, _ := w.measure(opts.duration, 1, nil, acct, lat)
		rss, err := rs.finish()
		if err != nil {
			return nil, err
		}
		mps, eps := t.meter.rates(t.meter.groupWindows(onlineWindow))
		out.metrics = endToEnd(setups, mps, eps, rss)
		latencyMetrics(out.metrics, out.info, lat, onlineTail)
		return out, nil
	}

	// Traced run: half the time untraced, half traced over the following
	// sessions, then the Table 3 attribution pass.
	tr := newTracer()
	sh := tr.shard()
	untraced, next := w.measure(opts.duration/2, 1, nil, acct, &latencies{})
	traced, _ := w.measure(opts.duration/2, next, sh, acct, &latencies{})
	vals := map[string]float64{}
	var appends, blocked int64
	for _, st := range traced.stats {
		appends += st.Appends
		blocked += st.BlockedWaits
		vals["wal.max_verifier_lag"] = max(vals["wal.max_verifier_lag"], float64(st.MaxVerifierLag))
		vals["wal.peak_retained_entries"] = max(vals["wal.peak_retained_entries"], float64(st.PeakRetainedEntries))
	}
	vals["wal.blocked_waits_per_kentry"] = 1000 * ratio(float64(blocked), float64(appends))
	w.attribute(sh, acct, vals)
	err := out.finishTrace(opts, tr, perSecond(untraced.methods, untraced.elapsed.Seconds()),
		perSecond(traced.methods, traced.elapsed.Seconds()), vals)
	return out, err
}

// attribute is the Table 3 breakdown over the first sessions' inputs: each
// session is run with logging off (col. 1), with view logging and no
// checker (col. 2), with the online checker (col. 3), and its col. 2 log is
// checked offline in view and I/O mode (col. 4).
func (w *onlineWorkload) attribute(sh *traceShard, acct *accounting, vals map[string]float64) {
	var (
		n                             = w.opts.sizes.attribReps * len(w.subjects)
		alone, logged, onlineWall     time.Duration
		viewNS, ioNS                  time.Duration
		methods, loggedEntries        int64
		onlineEntries, offlineEntries int64
		mallocs                       uint64
		ms                            runtime.MemStats
	)
	for i := 1; i <= n; i++ {
		s := w.subject(i)
		unit := "attrib-" + strconv.Itoa(i)

		h := sh.begin("harness.Run/off", unit, root)
		res := harness.Run(s.Correct, w.config(i, vyrd.LevelOff, vyrd.LogOptions{}))
		sh.end(h)
		alone += res.Elapsed
		methods += res.Methods

		h = sh.begin("harness.Run/view", unit, root)
		res = harness.Run(s.Correct, w.config(i, vyrd.LevelView, vyrd.LogOptions{SegmentSize: w.lopts.SegmentSize}))
		sh.end(h)
		logged += res.Elapsed
		h = sh.begin("wal.Log.Snapshot", unit, root)
		entries := res.Log.Snapshot()
		sh.end(h)
		loggedEntries += int64(len(entries))

		on, err := w.session(i, sh)
		if err == nil {
			err = judge(clean, on.report)
		}
		acct.record(fmt.Sprintf("attribution session %d (%s)", i, s.Name), err)
		if err != nil {
			continue
		}
		onlineWall += on.wall
		onlineEntries += on.entries

		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		h = sh.begin("core.CheckEntries/view", unit, root)
		rep, err := core.CheckEntries(entries, s.Correct.NewSpec(),
			core.WithMode(core.ModeView), core.WithReplayer(s.Correct.NewReplayer()))
		viewNS += sh.end(h)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		if err == nil {
			err = judge(clean, rep)
		}
		acct.record(fmt.Sprintf("offline view check %d (%s)", i, s.Name), err)

		h = sh.begin("core.CheckEntries/io", unit, root)
		rep, err = core.CheckEntries(entries, s.Correct.NewSpec(), core.WithMode(core.ModeIO))
		ioNS += sh.end(h)
		if err == nil {
			err = judge(clean, rep)
		}
		acct.record(fmt.Sprintf("offline io check %d (%s)", i, s.Name), err)
		offlineEntries += int64(len(entries))
	}
	perSession := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / float64(n) }
	vals["table3.prog_alone_ms"] = perSession(alone)
	vals["table3.prog_logging_ms"] = perSession(logged)
	vals["table3.prog_vyrd_ms"] = perSession(onlineWall)
	vals["table3.vyrd_offline_ms"] = perSession(viewNS)
	vals["harness.alone_ns_per_method"] = ratio(float64(alone), float64(methods))
	vals["wal.capture_ns_per_entry"] = ratio(float64(logged-alone), float64(loggedEntries))
	vals["core.online_ns_per_entry"] = ratio(float64(onlineWall-logged), float64(onlineEntries))
	vals["core.view_ns_per_entry"] = ratio(float64(viewNS), float64(offlineEntries))
	vals["core.io_ns_per_entry"] = ratio(float64(ioNS), float64(offlineEntries))
	vals["core.allocs_per_entry"] = ratio(float64(mallocs), float64(offlineEntries))
}
