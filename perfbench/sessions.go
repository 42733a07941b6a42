package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/blinkstore"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/explore"
	"repro/internal/harness"
	"repro/internal/linearize"
	"repro/internal/remote"
	"repro/internal/sched"
	"repro/vyrd"
)

// vyrdd-sessions: recorded logs streamed to a vyrdd child process. The
// inputs are recorded under the controlled scheduler, so one seed gives
// byte-identical logs: five clean subjects (each checked in view, io,
// linearize and ltl mode), one modular BLinkTree+Store log, and the race
// witnesses of the exploration and weak-memory subjects, which must come
// back as violations of their known kind. Two client connections stream
// sessions back to back over that rotation. The unit is a session; its
// verdict latency runs from Client.Flush (Fin) to the verdict.

var (
	recordedSubjects = []string{"Multiset-Array", "java.util.Vector", "java.util.StringBuffer", "BLinkTree", "Cache"}
	sessionModes     = []string{"view", "io", "linearize", "ltl"}
	// witnessKinds is the first violation each race witness must report
	// under the server's default mode (view when the subject has a
	// replayer, io otherwise).
	witnessKinds = map[string]core.ViolationKind{
		"Multiset-TornPair":        core.ViolationIO,
		"BLinkTree-DroppedLock":    core.ViolationView,
		"Cache-TornUpdate":         core.ViolationInvariant,
		"TreiberStack-PublishRace": core.ViolationObserver,
		"Seqlock-TornRead":         core.ViolationObserver,
	}
)

const (
	sessionClients = 2
	recordThreads  = 2
	recordKeyPool  = 16
	// recordAttempts bounds the controlled runs spent on recording one log:
	// a run counts only once a second run reproduces its bytes (a run that
	// went free-running, or whose stolen turns landed differently on a
	// loaded host, does not).
	recordAttempts = 10
	// sessionsSetupReps is vyrdd-sessions' set-up count per run; each set-up
	// spawns a daemon and records every input, so it is kept below the
	// in-process workloads' count.
	sessionsSetupReps = 3
	// recordSets is how many independent recordings of each clean subject
	// one run's rotation holds.
	recordSets   = 8
	sessionsTail = 0.99
	// sessionsWindow is the sessions per throughput window: one rotation.
	sessionsWindow = recordSets * 26
)

// sessionInput is one session of the rotation.
type sessionInput struct {
	name    string
	target  harness.Target
	hello   remote.Hello
	entries []vyrd.Entry
	encoded []byte // the entries in the binary stream format
	methods int64
	want    expectation
	witness bool
}

// noVerify skips checking while recording: verdicts come from vyrdd.
func noVerify(harness.Target, []vyrd.Entry, bool) (*core.Report, error) { return &core.Report{}, nil }

// recordLog records one controlled run of sp, re-running it until two
// consecutive runs produce the same bytes, so the log depends on the spec
// alone.
func recordLog(t harness.Target, sp sched.Spec) ([]vyrd.Entry, error) {
	var prev []byte
	for a := 0; a < recordAttempts; a++ {
		r, err := explore.RunSpecWith(t, sp, noVerify)
		if err != nil {
			return nil, err
		}
		if r.Sched.FreeRun {
			prev = nil
			continue
		}
		if prev != nil && bytes.Equal(prev, r.LogBytes) {
			return r.Entries, nil
		}
		prev = r.LogBytes
	}
	return nil, fmt.Errorf("%s: no reproducible run in %d attempts", sp.Repro(), recordAttempts)
}

func encodeLog(entries []vyrd.Entry) ([]byte, error) {
	var buf bytes.Buffer
	enc := event.NewEncoder(&buf)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

func countMethods(entries []vyrd.Entry) int64 {
	var n int64
	for _, e := range entries {
		if e.Kind == event.KindCall {
			n++
		}
	}
	return n
}

// recordInputs builds the session rotation for a workload seed:
// recordSets sets of clean recordings, each followed by the race
// witnesses, so one run averages over several recordings of every subject
// while keeping the mix of session kinds. Recordings run one at a time:
// concurrent controlled runs contend for the CPUs, and a contended run's
// stolen turns land differently from run to run.
func recordInputs(seed int64, sz sizes) ([]*sessionInput, error) {
	witnesses, err := recordWitnesses(sz)
	if err != nil {
		return nil, err
	}
	var ins []*sessionInput
	for j := 0; j < recordSets; j++ {
		// Every (seed, set, subject) gets its own harness seed.
		base := (seed*recordSets + int64(j)) * int64(len(recordedSubjects)+1)
		set, err := recordCleanSet(base, j, sz)
		if err != nil {
			return nil, err
		}
		ins = append(append(ins, set...), witnesses...)
	}
	return ins, nil
}

// newInput completes an input with its encoding and method count.
func newInput(in *sessionInput) (*sessionInput, error) {
	enc, err := encodeLog(in.entries)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", in.name, err)
	}
	in.encoded = enc
	in.methods = countMethods(in.entries)
	return in, nil
}

// recordCleanSet records each clean subject once (checked in every
// session mode) and the modular BLinkTree+Store stack, from harness seeds
// base, base+1, ...
func recordCleanSet(base int64, set int, sz sizes) ([]*sessionInput, error) {
	var ins []*sessionInput
	record := func(t harness.Target, seed int64, ops int, hellos []remote.Hello, suffixes []string) error {
		sp := sched.Spec{Subject: t.Name, Threads: recordThreads, Ops: ops, KeyPool: recordKeyPool,
			Seed: seed, D: 3, K: 20 * ops}
		entries, err := recordLog(t, sp)
		if err != nil {
			return err
		}
		for i, h := range hellos {
			in, err := newInput(&sessionInput{
				name: fmt.Sprintf("%s/%s#%d", t.Name, suffixes[i], set), target: t, entries: entries, want: clean, hello: h,
			})
			if err != nil {
				return err
			}
			ins = append(ins, in)
		}
		return nil
	}
	for k, name := range recordedSubjects {
		s, ok := bench.SubjectByName(name)
		if !ok {
			return nil, fmt.Errorf("unknown subject %s", name)
		}
		var hellos []remote.Hello
		for _, mode := range sessionModes {
			hellos = append(hellos, remote.Hello{Spec: name, Mode: mode})
		}
		if err := record(s.Correct, base+int64(k), sz.recordOps, hellos, sessionModes); err != nil {
			return nil, err
		}
	}
	modular := blinkstore.ComposedTarget(6, blinkstore.BugNone)
	err := record(modular, base+int64(len(recordedSubjects)), sz.modularOps,
		[]remote.Hello{{Spec: modular.Name, Modular: true}}, []string{"modular"})
	return ins, err
}

// recordWitnesses finds the race witness of every exploration and
// weak-memory subject (bench.RaceWitness is deterministic per subject).
func recordWitnesses(sz sizes) ([]*sessionInput, error) {
	var ins []*sessionInput
	for _, s := range append(bench.ExplorationSubjects(), bench.WeakMemorySubjects()...) {
		entries, _, err := bench.RaceWitness(s, sz.exploreBudget)
		if err != nil {
			return nil, err
		}
		kind, ok := witnessKinds[s.Name]
		if !ok {
			return nil, fmt.Errorf("no expected violation kind for witness %s", s.Name)
		}
		in, err := newInput(&sessionInput{
			name: s.Name + "/witness", target: s.Correct, entries: entries, witness: true,
			want: expectation{kind: kind}, hello: remote.Hello{Spec: s.Name},
		})
		if err != nil {
			return nil, err
		}
		ins = append(ins, in)
	}
	return ins, nil
}

// hashInputs is the SHA-256 over every session's name, hello and encoded
// log, in rotation order.
func hashInputs(ins []*sessionInput) string {
	ih := newHasher()
	for _, in := range ins {
		ih.add(fmt.Sprintf("%s;spec=%s;mode=%s;modular=%t;want=%s", in.name, in.hello.Spec, in.hello.Mode,
			in.hello.Modular, in.want), in.encoded)
	}
	return ih.hex()
}

// remoteReport picks the report a verdict is judged by: the first failing
// module's, else the first module's.
func remoteReport(v *remote.Verdict) *core.Report {
	if v == nil || len(v.Reports) == 0 {
		return nil
	}
	for _, mr := range v.Reports {
		if !mr.Report.Ok() {
			return mr.Report
		}
	}
	return v.Reports[0].Report
}

type sessionResult struct {
	wall    time.Duration // NewClient to verdict
	latency time.Duration // Flush (Fin) to verdict
	write   time.Duration // inside WriteEntry (traced run only)
	stats   remote.ClientStats
}

// session streams one input to the daemon and judges the verdict.
func session(addr string, in *sessionInput, unit string, sh *traceShard) (sessionResult, error) {
	var res sessionResult
	top := sh.begin("remote.session", unit, root)
	defer sh.end(top)
	start := time.Now()
	h := sh.begin("remote.NewClient", unit, top)
	cl, err := remote.NewClient(remote.ClientOptions{Addr: addr, Hello: in.hello})
	sh.end(h)
	if err != nil {
		return res, err
	}
	defer cl.Close()
	for _, e := range in.entries {
		h := sh.begin("remote.Client.WriteEntry", unit, top)
		err := cl.WriteEntry(e)
		res.write += sh.end(h)
		if err != nil {
			return res, err
		}
	}
	fin := time.Now()
	h = sh.begin("remote.Client.Flush", unit, top)
	err = cl.Flush()
	sh.end(h)
	done := time.Now()
	if err != nil {
		return res, err
	}
	res.wall, res.latency = done.Sub(start), done.Sub(fin)
	res.stats = cl.Stats()
	return res, judge(in.want, remoteReport(cl.Verdict()))
}

type sessionsWorkload struct {
	opts   options
	d      *daemon
	inputs []*sessionInput
	hash   string
}

// setupSessions spawns vyrdd, records the inputs and runs one warm-up
// session; it returns the workload and the set-up time.
func setupSessions(opts options, acct *accounting) (*sessionsWorkload, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(opts.vyrdd)
	if err != nil {
		return nil, 0, err
	}
	ins, err := recordInputs(opts.seed, opts.sizes)
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	if _, err := session(d.addr, ins[0], "warm-up", nil); err != nil {
		acct.fail("warm-up session: " + err.Error())
	}
	return &sessionsWorkload{opts: opts, d: d, inputs: ins, hash: hashInputs(ins)}, time.Since(start), nil
}

// sessionTotals is what one measured loop did.
type sessionTotals struct {
	methods, entries int64
	elapsed          time.Duration
	meter            *meter
	wall, write      time.Duration
	peakBuffered     int
	runs             []int64 // sessions completed per input
	shortMS          []float64
}

// measure streams sessions from rotation index first on sessionClients
// connections for d.
func (w *sessionsWorkload) measure(d time.Duration, first int64, tr *tracer, acct *accounting, lat *latencies) (sessionTotals, int64) {
	var (
		mu   sync.Mutex
		tot  = sessionTotals{runs: make([]int64, len(w.inputs)), meter: newMeter()}
		next atomic.Int64
		wg   sync.WaitGroup
	)
	next.Store(first)
	for c := 0; c < sessionClients; c++ {
		sh := tr.shard()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tot.meter.since() < d {
				k := next.Add(1) - 1
				idx := int(k % int64(len(w.inputs)))
				in := w.inputs[idx]
				res, err := session(w.d.addr, in, "session-"+strconv.FormatInt(k, 10), sh)
				acct.record(fmt.Sprintf("session %d (%s)", k, in.name), err)
				if err != nil {
					continue
				}
				lat.add(res.latency)
				tot.meter.add(in.methods, int64(len(in.entries)))
				mu.Lock()
				tot.methods += in.methods
				tot.entries += int64(len(in.entries))
				tot.wall += res.wall
				tot.write += res.write
				tot.peakBuffered = max(tot.peakBuffered, res.stats.PeakBuffered)
				tot.runs[idx]++
				if in.witness {
					tot.shortMS = append(tot.shortMS, float64(res.wall)/float64(time.Millisecond))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	tot.elapsed = tot.meter.since()
	return tot, next.Load()
}

func runSessions(opts options) (*outcome, error) {
	acct := &accounting{}
	reps := sessionsSetupReps
	if opts.sizes.setupReps < reps {
		reps = opts.sizes.setupReps
	}
	if opts.trace {
		reps = 1
	}
	var (
		w      *sessionsWorkload
		setups []float64
	)
	for r := 0; r < reps; r++ {
		if w != nil {
			if err := w.d.stop(); err != nil {
				return nil, fmt.Errorf("stopping vyrdd: %w", err)
			}
		}
		prev := w
		var d time.Duration
		var err error
		if w, d, err = setupSessions(opts, acct); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if prev != nil && prev.hash != w.hash {
			acct.fail(fmt.Sprintf("set-ups recorded different inputs for seed %d: %s vs %s", opts.seed, prev.hash, w.hash))
		}
	}
	out, err := w.run(opts, acct, setups)
	if serr := w.d.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stopping vyrdd: %w", serr)
	}
	return out, err
}

func (w *sessionsWorkload) run(opts options, acct *accounting, setups []float64) (*outcome, error) {
	out := &outcome{acct: acct, inputHash: w.hash, info: map[string]any{}}
	if !opts.trace {
		lat := &latencies{}
		rs, err := startRSS(w.d.pid())
		if err != nil {
			return nil, err
		}
		t, _ := w.measure(opts.duration, 1, nil, acct, lat)
		rss, err := rs.finish()
		if err != nil {
			return nil, err
		}
		mps, eps := t.meter.rates(t.meter.groupWindows(sessionsWindow))
		out.metrics = endToEnd(setups, mps, eps, rss)
		latencyMetrics(out.metrics, out.info, lat, sessionsTail)
		return out, nil
	}

	tr := newTracer()
	untraced, next := w.measure(opts.duration/2, 1, nil, acct, &latencies{})
	traced, _ := w.measure(opts.duration/2, next, tr, acct, &latencies{})
	vals := map[string]float64{}
	m, err := w.d.metrics()
	if err != nil {
		return nil, err
	}
	if m.Sched != nil {
		vals["fleet.slices_per_session"] = ratio(float64(m.Sched.Slices), float64(m.SessionsFinished))
	}
	vals["remote.write_ns_per_entry"] = ratio(float64(traced.write), float64(traced.entries))
	vals["remote.peak_buffered"] = float64(traced.peakBuffered)
	vals["remote.short_session_ms"] = median(traced.shortMS)
	vals["remote.session_ns_per_entry"] = ratio(float64(traced.wall), float64(traced.entries))
	if err := w.attribute(tr.shard(), acct, traced, vals); err != nil {
		return nil, err
	}
	err = out.finishTrace(opts, tr, perSecond(untraced.entries, untraced.elapsed.Seconds()),
		perSecond(traced.entries, traced.elapsed.Seconds()), vals)
	return out, err
}

// engineCost is the offline cost of one input in one layer.
type engineCost struct {
	encode, decode, engine time.Duration
}

// attribute re-runs each input's layers offline, one call at a time:
// encode, decode, and the engine of its mode. The session's ns/entry of
// the traced loop is then split into encode + decode + engine +
// unattributed (wire, ingest and acks), weighting each input by the
// entries it contributed to the loop, so the four rows sum to it.
func (w *sessionsWorkload) attribute(sh *traceShard, acct *accounting, traced sessionTotals, vals map[string]float64) error {
	var (
		costs                      = make([]engineCost, len(w.inputs))
		byMode                     = map[string][2]float64{} // ns, entries
		linStates, linOps          float64
		mallocs, refinementEntries uint64
		encodedBytes, encodedCount float64
		ms                         runtime.MemStats
	)
	for k, in := range w.inputs {
		unit := "attrib-" + in.name
		n := float64(len(in.entries))

		h := sh.begin("event.Encoder.Encode", unit, root)
		enc, err := encodeLog(in.entries)
		costs[k].encode = sh.end(h)
		if err != nil {
			return err
		}
		encodedBytes += float64(len(enc))
		encodedCount += n

		h = sh.begin("event.Decoder.Decode", unit, root)
		dec := event.NewDecoder(bytes.NewReader(enc))
		decoded := 0
		for {
			_, err := dec.Decode()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return fmt.Errorf("%s: decode: %w", in.name, err)
			}
			decoded++
		}
		costs[k].decode = sh.end(h)
		if decoded != len(in.entries) {
			return fmt.Errorf("%s: decoded %d entries, encoded %d", in.name, decoded, len(in.entries))
		}

		mode := in.hello.Mode
		if in.hello.Modular {
			mode = "multi"
		} else if mode == "" {
			mode = explore.Mode(in.target).String()
		}
		var rep *core.Report
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		h = sh.begin("engine/"+mode, unit, root)
		switch mode {
		case "multi":
			var mrs []core.ModuleReport
			mrs, err = core.CheckEntriesMulti(in.entries, blinkstore.Modules()...)
			rep = remoteReport(&remote.Verdict{Reports: mrs})
		case "linearize":
			lc := bench.NewLinearizer(in.hello.Spec)().(*linearize.Checker)
			for _, e := range in.entries {
				lc.Feed(e)
			}
			rep = lc.Finish()
			linStates += float64(lc.StatesExplored())
			linOps += float64(in.methods)
		case "ltl":
			var c core.EntryChecker
			if c, err = bench.NewTemporal(in.hello.Spec)(nil, false); err == nil {
				for _, e := range in.entries {
					c.Feed(e)
				}
				rep = c.Finish()
			}
		case "view":
			rep, err = core.CheckEntries(in.entries, in.target.NewSpec(),
				core.WithMode(core.ModeView), core.WithReplayer(in.target.NewReplayer()))
		default:
			rep, err = core.CheckEntries(in.entries, in.target.NewSpec(), core.WithMode(core.ModeIO))
		}
		costs[k].engine = sh.end(h)
		if mode == "view" || mode == "io" {
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs - before
			refinementEntries += uint64(len(in.entries))
		}
		if err == nil {
			err = judge(in.want, rep)
		}
		acct.record("offline "+mode+" check of "+in.name, err)
		c := byMode[mode]
		byMode[mode] = [2]float64{c[0] + float64(costs[k].engine), c[1] + n}
	}

	perEntry := func(mode string) float64 { return ratio(byMode[mode][0], byMode[mode][1]) }
	vals["core.view_ns_per_entry"] = perEntry("view")
	vals["core.io_ns_per_entry"] = perEntry("io")
	vals["core.multi_ns_per_entry"] = perEntry("multi")
	vals["linearize.ns_per_entry"] = perEntry("linearize")
	vals["ltl.ns_per_entry"] = perEntry("ltl")
	vals["linearize.states_per_op"] = ratio(linStates, linOps)
	vals["core.allocs_per_entry"] = ratio(float64(mallocs), float64(refinementEntries))
	vals["event.bytes_per_entry"] = ratio(encodedBytes, encodedCount)

	var enc, dec, eng float64
	for k, c := range costs {
		runs := float64(traced.runs[k])
		enc += runs * float64(c.encode)
		dec += runs * float64(c.decode)
		eng += runs * float64(c.engine)
	}
	entries := float64(traced.entries)
	vals["event.encode_ns_per_entry"] = ratio(enc, entries)
	vals["event.decode_ns_per_entry"] = ratio(dec, entries)
	vals["remote.engine_ns_per_entry"] = ratio(eng, entries)
	vals["remote.unattributed_ns_per_entry"] = vals["remote.session_ns_per_entry"] -
		vals["event.encode_ns_per_entry"] - vals["event.decode_ns_per_entry"] - vals["remote.engine_ns_per_entry"]
	return nil
}
