package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"simfs/internal/core"
	"simfs/internal/des"
	"simfs/internal/model"
	"simfs/internal/simulator"
	"simfs/internal/trace"
)

// des-ecmwf shape: the paper's caching study (Fig. 5) — CacheEval, a
// cache of 25% of the output, DCL — with prefetch agents on, replaying
// ECMWF-like traces whose analyses run concurrently. Every trace replays
// on a fresh Virtualizer with a cold cache. A run replays the traces in
// order, whole traces only, until its time is up; the first desExact of
// them are replayed once more in set-up, and their virtual-time outcome
// is the workload's exact result.
const (
	desTraces   = 256 // traces derived from one workload seed
	desExact    = 8   // traces whose outcome is reported and compared
	desAnalyses = 8   // concurrent analyses per trace
	desMinLen   = 100
	desMaxLen   = 400
	desTauCli   = 100 * time.Millisecond
	// desMaxRetries bounds the re-opens of one access after the
	// re-simulation it waited on was killed.
	desMaxRetries = 16
)

// desTrace is one derived trace: the steps of each analysis, and how many
// distinct steps it accesses.
type desTrace struct {
	seed     int64
	analyses [][]int
	distinct int
}

// desInputs is everything the des-ecmwf seed determines.
type desInputs struct {
	traces []desTrace
	names  []string // step → file name (index 0 unused)
}

func genDES(seed int64) (*desInputs, error) {
	base := simulator.CacheEval()
	n := base.Grid.NumOutputSteps()
	in := &desInputs{names: make([]string, n+1)}
	for s := 1; s <= n; s++ {
		in.names[s] = base.Filename(s)
	}
	for i := 0; i < desTraces; i++ {
		// Derived seeds: a stride wider than desTraces keeps the traces
		// of different workload seeds apart.
		ds := seed*1_000_003 + int64(i)*7919
		tr, err := trace.Generate(trace.ECMWF, trace.Config{
			NumSteps: n, NumAnalyses: desAnalyses,
			MinLen: desMinLen, MaxLen: desMaxLen, Stride: 1, Seed: ds,
		})
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		t := desTrace{seed: ds, analyses: make([][]int, desAnalyses)}
		seen := map[int]bool{}
		for _, a := range tr {
			t.analyses[a.Analysis] = append(t.analyses[a.Analysis], a.Step)
			seen[a.Step] = true
		}
		t.distinct = len(seen)
		in.traces = append(in.traces, t)
	}
	return in, nil
}

// desOutcome is the exact virtual-time result of one trace.
type desOutcome struct {
	completions []time.Duration
	resimSteps  int64
	restarts    int64
}

func (a desOutcome) equal(b desOutcome) bool {
	if a.resimSteps != b.resimSteps || a.restarts != b.restarts || len(a.completions) != len(b.completions) {
		return false
	}
	for i := range a.completions {
		if a.completions[i] != b.completions[i] {
			return false
		}
	}
	return true
}

// desCounters are the per-layer counters of one or more replays.
type desCounters struct {
	opens, hits, evictions           int64
	prefLaunches, kills, prefDropped int64
	submitted, queued, schedDropped  uint64
	demandWait                       time.Duration
	lockAcq, lockCont                uint64
	lockWait                         time.Duration
	events                           uint64
	produced, useful                 int64
	retries                          int64 // re-opens after a killed re-simulation
	wallInEngine                     time.Duration
}

func (c *desCounters) add(o desCounters) {
	c.opens += o.opens
	c.hits += o.hits
	c.evictions += o.evictions
	c.prefLaunches += o.prefLaunches
	c.kills += o.kills
	c.prefDropped += o.prefDropped
	c.submitted += o.submitted
	c.queued += o.queued
	c.schedDropped += o.schedDropped
	c.demandWait += o.demandWait
	c.lockAcq += o.lockAcq
	c.lockCont += o.lockCont
	c.lockWait += o.lockWait
	c.events += o.events
	c.produced += o.produced
	c.useful += o.useful
	c.retries += o.retries
	c.wallInEngine += o.wallInEngine
}

// desRunner replays traces one after another and accumulates what they
// did. hitLat samples the wall time the program spent on each hit access
// (Open plus Release).
type desRunner struct {
	in        *desInputs
	tr        *tracer
	completed *atomic.Int64 // accesses released after their file was served, read by the sampler
	hitLat    *latencies
	accesses  int64
	failed    int64
	firstErr  string
	props     []string
	cur       *desCounters // the counters of the trace being replayed
	total     desCounters
	traces    int
}

func (r *desRunner) fail(msg string) {
	r.failed++
	if r.firstErr == "" {
		r.firstErr = msg
	}
}

// tracedLauncher times Launch calls into the DES launcher.
type tracedLauncher struct {
	inner *simulator.DESLauncher
	tr    *tracer
}

func (l tracedLauncher) Launch(ctx *model.Context, first, last, parallelism int) int64 {
	start := l.tr.now()
	id := l.inner.Launch(ctx, first, last, parallelism)
	l.tr.record("simulator.launch", 0, -1, start, l.tr.now())
	return id
}

func (l tracedLauncher) Kill(simID int64) { l.inner.Kill(simID) }

// desTap times core's ingestion of simulation events and tracks which
// produced steps an analysis later used.
type desTap struct {
	inner   simulator.Events
	tr      *tracer
	pending map[int]bool // produced, not yet used by an access
	r       *desRunner
}

func (e *desTap) SimStarted(id int64) { e.inner.SimStarted(id) }

func (e *desTap) StepProduced(id int64, step int) {
	start := e.tr.now()
	e.inner.StepProduced(id, step)
	e.tr.record("core.event", 0, -1, start, e.tr.now())
	e.pending[step] = true
	e.r.cur.produced++
}

func (e *desTap) SimEnded(id int64, outcome simulator.Outcome) {
	start := e.tr.now()
	e.inner.SimEnded(id, outcome)
	e.tr.record("core.event", 0, -1, start, e.tr.now())
}

// replay runs one trace on a fresh Virtualizer, checks its properties and
// returns its virtual-time outcome and counters.
func (r *desRunner) replay(t desTrace) (out desOutcome, c desCounters) {
	r.cur = &c
	r.traces++
	defer func() { r.total.add(c) }()
	ctx := simulator.CacheEval()
	eng := des.NewEngine()
	dl := &simulator.DESLauncher{Engine: eng}
	var launcher core.Launcher = dl
	var tap *desTap
	if r.tr != nil {
		launcher = tracedLauncher{inner: dl, tr: r.tr}
	}
	v := core.New(eng, launcher)
	dl.Events = v
	if r.tr != nil {
		tap = &desTap{inner: v, tr: r.tr, pending: map[int]bool{}, r: r}
		dl.Events = tap
	}
	if err := v.AddContext(ctx, "DCL", nil); err != nil {
		r.fail(fmt.Sprintf("add context: %v", err))
		return out, c
	}
	completions := make([]time.Duration, len(t.analyses))
	done, traceLen := 0, 0
	for ai, steps := range t.analyses {
		traceLen += len(steps)
		a := &desAnalysis{r: r, eng: eng, v: v, ctx: ctx.Name, tap: tap,
			client: fmt.Sprintf("a%d", ai), steps: steps,
			onDone: func(d time.Duration) { completions[ai] = d; done++ }}
		eng.Schedule(0, a.step)
	}
	t0 := wallNow()
	converged := eng.Run(1 << 40)
	c.wallInEngine = wallNow().Sub(t0)
	c.events = eng.Processed()
	prop := func(ok bool, format string, args ...any) {
		if !ok {
			r.props = append(r.props, fmt.Sprintf("trace seed %d: ", t.seed)+fmt.Sprintf(format, args...))
		}
	}
	prop(converged, "the engine did not drain")
	st, err := v.Stats(ctx.Name)
	if err != nil {
		r.fail(fmt.Sprintf("stats: %v", err))
		return out, c
	}
	retries := c.retries
	prop(done == len(t.analyses), "%d of %d analyses completed", done, len(t.analyses))
	prop(st.Opens == int64(traceLen)+retries, "%d opens for a trace of %d accesses and %d retries", st.Opens, traceLen, retries)
	prop(st.StepsProduced >= int64(t.distinct), "%d steps produced from a cold cache, %d distinct steps accessed", st.StepsProduced, t.distinct)
	for ai, steps := range t.analyses {
		floor := time.Duration(len(steps)) * desTauCli
		prop(completions[ai] >= floor, "analysis %d completed in %v, below %d accesses × τcli", ai, completions[ai], len(steps))
	}
	if err := v.CheckInvariants(); err != nil {
		prop(false, "invariants: %v", err)
	}
	out = desOutcome{completions: completions, resimSteps: st.StepsProduced, restarts: st.Restarts}

	c.opens += st.Opens
	c.hits += st.Hits
	c.evictions += st.Evictions
	c.prefLaunches += st.PrefetchLaunches
	c.kills += st.Kills
	c.prefDropped += st.DroppedPrefetch
	ss := v.SchedStats()
	c.submitted += ss.Submitted
	c.queued += ss.Queued
	c.schedDropped += ss.Dropped
	c.demandWait += ss.DemandWait.Wait
	ls := v.TotalLockStats()
	c.lockAcq += ls.Acquisitions
	c.lockCont += ls.Contended
	c.lockWait += ls.Wait
	return out, c
}

// desAnalysis is one analysis of the trace as a DES process: open, wait
// while the file is missing, process for τcli, release — the access loop
// of a DVLib client, with the benchmark's timing around each call.
type desAnalysis struct {
	r       *desRunner
	eng     *des.Engine
	v       *core.Virtualizer
	tap     *desTap
	ctx     string
	client  string
	steps   []int
	pos     int
	retries int // of the current access
	onDone  func(time.Duration)
}

func (a *desAnalysis) step() {
	if a.pos >= len(a.steps) {
		a.onDone(a.eng.Now())
		return
	}
	r := a.r
	file := r.in.names[a.steps[a.pos]]
	if a.retries == 0 {
		r.accesses++
	}
	aid := uint64(r.accesses)
	s := r.tr.begin("core.open", aid, -1)
	t0 := wallNow()
	res, err := a.v.Open(a.client, a.ctx, file)
	openWall := wallNow().Sub(t0)
	r.tr.end(s)
	if err != nil {
		r.fail(fmt.Sprintf("open %s: %v", file, err))
		a.pos++
		a.eng.Schedule(0, a.step)
		return
	}
	if res.Available {
		a.process(file, aid, openWall)
		return
	}
	s = r.tr.begin("core.waitfile", aid, -1)
	err = a.v.WaitFile(a.client, a.ctx, file, func(st core.Status) {
		if st.Err != "" {
			// A DVLib client drops its reference and retries the access
			// when the re-simulation it waited on dies.
			_ = a.v.Release(a.client, a.ctx, file)
			r.cur.retries++
			if a.retries++; a.retries > desMaxRetries {
				r.fail(fmt.Sprintf("wait %s: %s, %d times", file, st.Err, a.retries))
				a.retries = 0
				a.pos++
			}
			a.eng.Schedule(0, a.step)
			return
		}
		a.process(file, aid, -1)
	})
	r.tr.end(s)
	if err != nil {
		// Nothing runs between Open and WaitFile on the single-threaded
		// engine, so a file Open reported missing must be promised to a
		// re-simulation: an error here is the program's fault.
		r.fail(fmt.Sprintf("wait %s: %v", file, err))
		_ = a.v.Release(a.client, a.ctx, file) // the access has failed already
		a.retries = 0
		a.pos++
		a.eng.Schedule(0, a.step)
	}
}

// process holds the file for τcli of virtual time, then releases it.
// hitWall is the Open's wall time for a hit, or -1 for a miss.
func (a *desAnalysis) process(file string, aid uint64, hitWall time.Duration) {
	a.eng.Schedule(desTauCli, func() {
		r := a.r
		if a.tap != nil && a.tap.pending[a.steps[a.pos]] {
			a.tap.pending[a.steps[a.pos]] = false
			r.cur.useful++
		}
		s := r.tr.begin("core.release", aid, -1)
		t0 := wallNow()
		err := a.v.Release(a.client, a.ctx, file)
		relWall := wallNow().Sub(t0)
		r.tr.end(s)
		if err != nil {
			r.fail(fmt.Sprintf("release %s: %v", file, err))
		} else {
			r.completed.Add(1)
			if hitWall >= 0 {
				r.hitLat.add(hitWall + relWall)
			}
		}
		a.pos++
		a.retries = 0
		a.step()
	})
}

// replayTraces replays traces 0, 1, 2, … one after another, whole traces
// only, until at least atLeast traces have run and stop reports true. It
// returns the outcomes and counters of the first atLeast traces.
//
// Traces replay one at a time: with two in parallel on the 2-vCPU machine
// the benchmark was tuned on, four runs of one seed read 25.8k-33.6k
// accesses/s, against 16.9k-18.8k with one, as the two replays slowed
// each other down by an amount that changed from run to run.
func (r *desRunner) replayTraces(atLeast int, stop func() bool) ([]desOutcome, []desCounters) {
	outs := make([]desOutcome, atLeast)
	ctrs := make([]desCounters, atLeast)
	for n := 0; n < atLeast || !stop(); n++ {
		out, c := r.replay(r.in.traces[n%len(r.in.traces)])
		if n < atLeast {
			outs[n], ctrs[n] = out, c
		}
	}
	return outs, ctrs
}
