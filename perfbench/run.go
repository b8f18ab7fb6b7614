package main

import (
	"bytes"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"simfs/internal/netproto"
)

// sampleEvery is the interval over which access_per_s and
// cpu_us_per_access are measured before their quantiles are taken (see
// sampler.finish).
const sampleEvery = 250 * time.Millisecond

// setups is how many set-ups one run performs. setup_s is the fastest of
// them: interference from outside the process only ever adds to a
// set-up's time, so the minimum moves least between runs.
const setups = 5

// setupRuns performs setups set-ups, closing all but the last, and
// returns the last with the fastest set-up time in seconds.
func setupRuns[T any](setup func() (T, error), closeFn func(T)) (T, float64, error) {
	var inst T
	best := math.Inf(1)
	for i := 0; i < setups; i++ {
		t0 := wallNow()
		x, err := setup()
		if err != nil {
			return inst, 0, fmt.Errorf("set-up: %w", err)
		}
		best = min(best, wallNow().Sub(t0).Seconds())
		if i < setups-1 {
			closeFn(x)
		} else {
			inst = x
		}
	}
	return inst, best, nil
}

func runLive(o options) (*report, error) {
	in := genLive(o.workload, o.seed)
	if o.corrupt != nil {
		o.corrupt(in.expect)
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	li, setupS, err := setupRuns(func() (*liveInst, error) { return setupLive(in, o.workDir, tr) },
		func(li *liveInst) { li.close() })
	if err != nil {
		return nil, err
	}
	defer li.close()

	rep := &report{workload: o.workload, metrics: map[string]float64{"setup_s": setupS}}
	before, err := li.counters()
	if err != nil {
		return nil, err
	}
	tr.reset()
	li.pubDeliv = newLatencies()
	side0 := li.sideDeliv.Load()
	res := newPhaseResult()
	freeHeap()
	mem0, cpu0, t0 := readMem(), cpuTime(), wallNow()
	smp := startSampler(&res.completed, sampleEvery)
	li.runClients(t0.Add(time.Duration(o.seconds)*time.Second), res)
	rate, cpuPer, rss := smp.finish()
	wall, cpu, mem1 := wallNow().Sub(t0), cpuTime()-cpu0, readMem()
	after, err := li.counters()
	if err != nil {
		return nil, err
	}

	rep.attempted, rep.failed, rep.firstErr = res.attempted, res.failed, res.firstErr
	if li.warm.failed > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("warm pass: %d of %d accesses failed", li.warm.failed, li.warm.attempted))
	}
	done := float64(res.attempted - res.failed)
	d := sumStats(after.stats)
	b := sumStats(before.stats)
	opens, hits, misses, restarts := d.Opens-b.Opens, d.Hits-b.Hits, d.Misses-b.Misses, d.Restarts-b.Restarts
	check := func(ok bool, format string, args ...any) {
		if !ok {
			rep.violations = append(rep.violations, fmt.Sprintf(format, args...))
		}
	}
	check(hits+misses == opens, "hits %d + misses %d != opens %d", hits, misses, opens)
	if o.workload == "resim-mixed" {
		check(hits == res.readerAcc, "reader: %d hits for %d accesses (every reader open must hit)", hits, res.readerAcc)
		check(misses == res.explorerAcc, "explorer: %d misses for %d accesses (every explorer open must miss)", misses, res.explorerAcc)
		check(restarts == res.explorerAcc, "explorer: %d re-simulations for %d accesses", restarts, res.explorerAcc)
	} else {
		check(opens == res.attempted && hits == opens, "%d opens, %d hits for %d accesses (every open must report available)", opens, hits, res.attempted)
		check(misses == 0 && restarts == 0, "misses grew by %d and restarts by %d in the timed phase", misses, restarts)
	}
	rep.correct = len(rep.violations) == 0

	m := rep.metrics
	m["access_per_s"] = rate
	m["hit_access_p50_us"] = res.hitLat.quantile(0.5)
	m["cpu_us_per_access"] = cpuPer
	rep.notes = append(rep.notes, fmt.Sprintf("whole phase: %.0f accesses/s, %.1f us CPU per access over %.1f s, %d GC cycles",
		done/wall.Seconds(), ratio(float64(cpu)/1e3, done), wall.Seconds(), mem1.gcs-mem0.gcs))
	m["rss_mb"] = rss
	if o.workload == "resim-mixed" {
		rep.notes = append(rep.notes,
			tailNote("reader (hit) access", res.hitLat),
			tailNote("explorer (re-simulation) access", res.missLat),
			fmt.Sprintf("accesses: reader %d, explorer %d", res.readerAcc, res.explorerAcc))
		m["workload.resim_access_p50_us"] = res.missLat.quantile(0.5)
	} else {
		rep.notes = append(rep.notes, tailNote("hit access", res.hitLat))
	}
	if !o.trace {
		return rep, nil
	}

	m["workload.traced_access_per_s"] = m["access_per_s"]
	sums := tr.summarize()
	p50 := func(name string) float64 {
		if s := sums[name]; s != nil {
			return s.p50
		}
		return 0
	}
	m["ioshim.open_p50_us"] = p50("ioshim.open") / 1e3
	m["ioshim.read_p50_us"] = p50("ioshim.read") / 1e3
	m["ioshim.meanvar_p50_us"] = p50("ioshim.meanvar") / 1e3
	m["ioshim.close_p50_us"] = p50("ioshim.close") / 1e3
	m["core.event_p50_ns"] = p50("core.event")
	m["vfs.write_p50_us"] = p50("vfs.write") / 1e3
	m["server.ops_per_access"] = ratio(opCounts(after.stats)-opCounts(before.stats), done)
	m["server.open_service_p50_us"] = opP50(after.stats, netproto.OpOpen)
	m["server.subscribe_service_p50_us"] = opP50(after.stats, netproto.OpSubscribe)
	m["server.release_service_p50_us"] = opP50(after.stats, netproto.OpRelease)
	var conn connSnapshot
	for i := range after.conns {
		c := after.conns[i].sub(before.conns[i])
		conn = connSnapshot{conn.reads + c.reads, conn.writes + c.writes, conn.bytesIn + c.bytesIn, conn.bytesOut + c.bytesOut}
	}
	m["server.conn_reads_per_access"] = ratio(float64(conn.reads), done)
	m["server.conn_writes_per_access"] = ratio(float64(conn.writes), done)
	m["server.bytes_in_per_access"] = ratio(float64(conn.bytesIn), done)
	m["server.bytes_out_per_access"] = ratio(float64(conn.bytesOut), done)
	if li.router != nil {
		// The daemons' accepted connections are the router's peer links:
		// what a daemon reads the router wrote, and the reverse.
		m["fed.peer_writes_per_access"] = m["server.conn_reads_per_access"]
		m["fed.peer_reads_per_access"] = m["server.conn_writes_per_access"]
	}
	m["core.hit_ratio"] = ratio(float64(hits), float64(opens))
	m["core.lock_contended_ratio"] = ratio(after.lock[1]-before.lock[1], after.lock[0]-before.lock[0])
	m["core.lock_wait_us_per_access"] = ratio((after.lock[2]-before.lock[2])/1e3, done)
	m["cache.evictions_per_access"] = ratio(float64(d.Evictions-b.Evictions), done)
	m["sched.submitted"] = after.sched[0] - before.sched[0]
	m["sched.queued"] = after.sched[1] - before.sched[1]
	m["sched.dropped"] = after.sched[2] - before.sched[2]
	m["sched.demand_wait_us_per_resim"] = ratio((after.sched[3]-before.sched[3])/1e3, float64(restarts))
	m["prefetch.launches"] = float64(d.PrefetchLaunches - b.PrefetchLaunches)
	m["prefetch.kills"] = float64(d.Kills - b.Kills)
	m["prefetch.dropped"] = float64(d.DroppedPrefetch - b.DroppedPrefetch)
	produced := float64(d.StepsProduced - b.StepsProduced)
	m["simulator.steps_per_resim"] = ratio(produced, float64(restarts))
	if o.workload == "resim-mixed" {
		// Every produced step was produced for the explorer access that
		// waited on it; useful means that access then read it correctly.
		m["simulator.useful_step_ratio"] = ratio(float64(res.explorerAcc-res.failed), produced)
	}
	var used int64
	for ci, ctx := range in.contexts {
		if area, ok := li.stacks[li.daemonOf(ci)].Area(ctx.Name); ok {
			used += area.UsedBytes()
		}
	}
	m["vfs.used_mb"] = float64(used) / (1 << 20)
	m["notify.publish_to_deliver_p50_us"] = li.pubDeliv.quantile(0.5)
	side := float64(li.sideDeliv.Load() - side0)
	m["notify.delivered_per_resim"] = ratio(float64(after.hubDel-before.hubDel)-side, float64(restarts))
	m["proc.allocs_per_access"] = ratio(float64(mem1.mallocs-mem0.mallocs), done)
	m["proc.alloc_bytes_per_access"] = ratio(float64(mem1.bytes-mem0.bytes), done)
	m["proc.gc_cycles"] = float64(mem1.gcs - mem0.gcs)
	enc, dec, size, err := codecProbe(in.contexts[0].Name, in.resident[0][0].name)
	if err != nil {
		return nil, err
	}
	m["netproto.encode_ns_per_frame"], m["netproto.decode_ns_per_frame"], m["netproto.bytes_per_frame"] = enc, dec, size
	rep.notes = append(rep.notes, spanNotes(sums)...)
	rep.notes = append(rep.notes, fmt.Sprintf("spans dropped past the in-memory cap: %d", tr.dropped))
	rep.spanFile, err = tr.write(o.spanDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	return rep, err
}

// codecProbe re-encodes and decodes the frames of one hit access — the
// open, subscribe and release requests and their responses — through
// the binary codec, returning ns per encode, ns per decode and bytes per
// frame.
func codecProbe(ctxName, file string) (encNs, decNs, bytesPer float64, err error) {
	var frames []any
	for i, op := range []string{netproto.OpOpen, netproto.OpSubscribe, netproto.OpRelease} {
		var body any = netproto.FileBody{Context: ctxName, File: file}
		if op == netproto.OpSubscribe {
			body = netproto.FilesBody{Context: ctxName, Files: []string{file}}
		}
		env, _ := netproto.NewEnvelope(uint64(i+1), op, body)
		frames = append(frames, env)
	}
	frames = append(frames,
		netproto.Response{ID: 1, OK: true, Available: true},
		netproto.Response{ID: 2, OK: true, File: file, Ready: true},
		netproto.Response{ID: 2, OK: true, Done: true},
		netproto.Response{ID: 3, OK: true})
	const reps = 20000
	encoded := make([][]byte, len(frames))
	var buf bytes.Buffer
	t0 := wallNow()
	for r := 0; r < reps; r++ {
		for i, f := range frames {
			buf.Reset()
			if err := netproto.Binary.EncodeFrame(&buf, f); err != nil {
				return 0, 0, 0, fmt.Errorf("codec probe: encode: %w", err)
			}
			if r == 0 {
				encoded[i] = append([]byte(nil), buf.Bytes()...)
			}
		}
	}
	n := float64(reps * len(frames))
	encNs = float64(wallNow().Sub(t0).Nanoseconds()) / n
	var total int
	for _, e := range encoded {
		total += len(e)
	}
	t0 = wallNow()
	for r := 0; r < reps; r++ {
		for i, e := range encoded {
			var err error
			if _, isEnv := frames[i].(netproto.Envelope); isEnv {
				var env netproto.Envelope
				err = netproto.Binary.DecodeFrame(bytes.NewReader(e), &env)
			} else {
				var resp netproto.Response
				err = netproto.Binary.DecodeFrame(bytes.NewReader(e), &resp)
			}
			if err != nil {
				return 0, 0, 0, fmt.Errorf("codec probe: decode: %w", err)
			}
		}
	}
	decNs = float64(wallNow().Sub(t0).Nanoseconds()) / n
	return encNs, decNs, float64(total) / float64(len(frames)), nil
}

func runDES(o options) (*report, error) {
	in, err := genDES(o.seed)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// Set-up builds a stack per trace and replays the first desExact
	// traces untimed; their outcomes are the reference the timed replays
	// of the same traces must reproduce exactly.
	never := func() bool { return true }
	ref, setupS, err := setupRuns(func() ([]desOutcome, error) {
		r := &desRunner{in: in, tr: tr, completed: new(atomic.Int64), hitLat: newLatencies()}
		outs, _ := r.replayTraces(desExact, never)
		if r.failed > 0 || len(r.props) > 0 {
			return nil, fmt.Errorf("warm pass: %d failed (%s) %v", r.failed, r.firstErr, r.props)
		}
		return outs, nil
	}, func([]desOutcome) {})
	if err != nil {
		return nil, err
	}
	tr.reset()
	rep := &report{workload: o.workload, metrics: map[string]float64{"setup_s": setupS}}
	r := &desRunner{in: in, tr: tr, completed: new(atomic.Int64), hitLat: newLatencies()}
	freeHeap()
	mem0, cpu0, t0 := readMem(), cpuTime(), wallNow()
	deadline := t0.Add(time.Duration(o.seconds) * time.Second)
	smp := startSampler(r.completed, sampleEvery)
	outs, ctrs := r.replayTraces(desExact, func() bool { return !wallNow().Before(deadline) })
	rate, cpuPer, rss := smp.finish()
	wall, cpu, mem1 := wallNow().Sub(t0), cpuTime()-cpu0, readMem()

	// The first desExact traces give the exact virtual-time outcome and
	// counters.
	var exact desOutcome
	var c desCounters
	var completions []float64 // s
	for n, out := range outs {
		if !out.equal(ref[n]) {
			r.props = append(r.props, fmt.Sprintf("trace %d: virtual-time outcome differs from its set-up replay", n))
		}
		for _, d := range out.completions {
			completions = append(completions, d.Seconds())
		}
		exact.resimSteps += out.resimSteps
		exact.restarts += out.restarts
		c.add(ctrs[n])
	}
	rep.attempted, rep.failed, rep.firstErr = r.accesses, r.failed, r.firstErr
	rep.violations = r.props
	rep.correct = len(rep.violations) == 0
	done := float64(r.accesses - r.failed)
	m := rep.metrics
	m["access_per_s"] = rate
	m["hit_access_p50_us"] = r.hitLat.quantile(0.5)
	m["cpu_us_per_access"] = cpuPer
	m["rss_mb"] = rss
	m["workload.virtual_completion_p50_s"] = pct(completions, 0.5)
	m["workload.resim_steps"] = float64(exact.resimSteps)
	m["workload.restarts"] = float64(exact.restarts)
	m["core.retries"] = float64(c.retries)
	rep.notes = append(rep.notes,
		fmt.Sprintf("whole phase: %.0f accesses/s, %.1f us CPU per access over %.1f s, %d traces of %d analyses, %d GC cycles",
			done/wall.Seconds(), ratio(float64(cpu)/1e3, done), wall.Seconds(), r.traces, desAnalyses, mem1.gcs-mem0.gcs),
		fmt.Sprintf("first %d traces: virtual completion p50 %.1f s, re-simulated steps %d, restarts %d, retried accesses %d",
			desExact, m["workload.virtual_completion_p50_s"], exact.resimSteps, exact.restarts, c.retries),
		tailNote("hit access (core Open+Release wall time)", r.hitLat))
	if !o.trace {
		return rep, nil
	}

	m["workload.traced_access_per_s"] = m["access_per_s"]
	sums := tr.summarize()
	p50 := func(name string) float64 {
		if s := sums[name]; s != nil {
			return s.p50
		}
		return 0
	}
	m["core.open_p50_ns"] = p50("core.open")
	m["core.release_p50_ns"] = p50("core.release")
	m["core.waitfile_p50_ns"] = p50("core.waitfile")
	m["core.event_p50_ns"] = p50("core.event")
	m["simulator.launch_p50_ns"] = p50("simulator.launch")
	// Counts and ratios cover the first desExact traces, so they are
	// exact; the per-event cost covers the whole phase.
	m["core.hit_ratio"] = ratio(float64(c.hits), float64(c.opens))
	m["core.lock_contended_ratio"] = ratio(float64(c.lockCont), float64(c.lockAcq))
	m["core.lock_wait_us_per_access"] = ratio(float64(c.lockWait)/1e3, float64(c.opens-c.retries))
	m["cache.evictions_per_access"] = ratio(float64(c.evictions), float64(c.opens-c.retries))
	m["sched.submitted"] = float64(c.submitted)
	m["sched.queued"] = float64(c.queued)
	m["sched.dropped"] = float64(c.schedDropped)
	m["sched.demand_wait_s"] = c.demandWait.Seconds()
	m["prefetch.launches"] = float64(c.prefLaunches)
	m["prefetch.kills"] = float64(c.kills)
	m["prefetch.dropped"] = float64(c.prefDropped)
	m["simulator.useful_step_ratio"] = ratio(float64(c.useful), float64(c.produced))
	m["simulator.steps_per_resim"] = ratio(float64(exact.resimSteps), float64(exact.restarts))
	m["des.events"] = float64(c.events)
	m["des.ns_per_event"] = ratio(float64(r.total.wallInEngine.Nanoseconds()), float64(r.total.events))
	m["proc.allocs_per_access"] = ratio(float64(mem1.mallocs-mem0.mallocs), done)
	m["proc.alloc_bytes_per_access"] = ratio(float64(mem1.bytes-mem0.bytes), done)
	m["proc.gc_cycles"] = float64(mem1.gcs - mem0.gcs)
	rep.notes = append(rep.notes, spanNotes(sums)...)
	rep.notes = append(rep.notes, fmt.Sprintf("spans dropped past the in-memory cap: %d", tr.dropped))
	rep.spanFile, err = tr.write(o.spanDir, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	return rep, err
}
