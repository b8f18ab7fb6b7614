package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"simfs/internal/dvlib"
	"simfs/internal/fed"
	"simfs/internal/ioshim"
	"simfs/internal/model"
	"simfs/internal/netproto"
	"simfs/internal/notify"
	"simfs/internal/server"
	"simfs/internal/simulator"
)

// Live workload shape. Every file is 64 KiB (8192 float64 values), as in
// the wire-path probe the benchmark's figures were tuned on. α and τ are
// 1 µs, so a re-simulation costs the daemon's machinery and no sleep.
const (
	fileBytes    = 64 << 10
	liveSteps    = 4096 // output steps of every live context
	residentSize = 512  // files preloaded for warm-scan(-routed)
	cacheFiles   = 1024 // warm-scan cache, in files: the resident set fits
	hotSize      = 64   // resim-mixed: files the reader keeps pinned
	sweepLen     = 1024 // resim-mixed: the explorer's cyclic sweep
	mixCache     = 160  // resim-mixed cache, in files: smaller than the sweep
	sweepRound   = 32   // resim-mixed: explorer accesses per round
	warmRounds   = 8    // resim-mixed: explorer rounds of the warm pass
	liveClients  = 2    // load connections (the machine's core count)
)

// fileRef names one file of a live workload: which context (index into
// the workload's contexts) and which output step.
type fileRef struct {
	ctx  int
	step int
	name string
}

// liveInputs is everything a live workload's seed determines.
type liveInputs struct {
	kind     string
	contexts []*model.Context
	resident [][]fileRef // per context: files preloaded at set-up
	orders   [][]fileRef // per client: one round of accesses
	sweep    []fileRef   // resim-mixed explorer sweep (cyclic)
	expect   map[string]meanVar
}

func liveContext(name string, cacheFiles int) *model.Context {
	ctx := &model.Context{
		Name:          name,
		Grid:          model.Grid{DeltaD: 1, DeltaR: 1, Timesteps: liveSteps},
		OutputBytes:   fileBytes,
		MaxCacheBytes: int64(cacheFiles) * fileBytes,
		Tau:           time.Microsecond,
		Alpha:         time.Microsecond,
		NoPrefetch:    true,
		SMax:          8,
	}
	ctx.ApplyDefaults()
	return ctx
}

// genLive derives a live workload's inputs from the seed and computes the
// expected mean and variance of every file the workload reads.
func genLive(kind string, seed int64) *liveInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &liveInputs{kind: kind, expect: map[string]meanVar{}}
	switch kind {
	case "warm-scan":
		in.contexts = []*model.Context{liveContext("scan", cacheFiles)}
	case "warm-scan-routed":
		in.contexts = []*model.Context{
			liveContext("scan-a", cacheFiles/2),
			liveContext("scan-b", cacheFiles/2),
		}
	case "resim-mixed":
		in.contexts = []*model.Context{liveContext("mix", mixCache)}
	}
	ref := func(ci, step int) fileRef {
		return fileRef{ctx: ci, step: step, name: in.contexts[ci].Filename(step)}
	}
	in.resident = make([][]fileRef, len(in.contexts))
	if kind == "resim-mixed" {
		// Hot set from the first half of the timeline, sweep through the
		// second half starting at a seeded offset.
		for _, p := range rng.Perm(liveSteps / 2)[:hotSize] {
			in.resident[0] = append(in.resident[0], ref(0, p+1))
		}
		start := rng.Intn(liveSteps / 2)
		for i := 0; i < sweepLen; i++ {
			in.sweep = append(in.sweep, ref(0, liveSteps/2+1+(start+i)%(liveSteps/2)))
		}
		in.orders = [][]fileRef{shuffled(rng, in.resident[0])}
	} else {
		per := residentSize / len(in.contexts)
		var all []fileRef
		for ci := range in.contexts {
			for _, p := range rng.Perm(liveSteps)[:per] {
				in.resident[ci] = append(in.resident[ci], ref(ci, p+1))
			}
			all = append(all, in.resident[ci]...)
		}
		for c := 0; c < liveClients; c++ {
			in.orders = append(in.orders, shuffled(rng, all))
		}
	}
	var buf []float64
	add := func(f fileRef) {
		var mv meanVar
		mv, buf = expectedMeanVar(f.name, fileBytes, buf)
		in.expect[f.name] = mv
	}
	for _, rs := range in.resident {
		for _, f := range rs {
			add(f)
		}
	}
	for _, f := range in.sweep {
		add(f)
	}
	return in
}

func shuffled(rng *rand.Rand, fs []fileRef) []fileRef {
	out := append([]fileRef(nil), fs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// liveInst is one set-up of a live workload: daemons (and router), the
// admin connections used for preloading and counters, and the load
// clients.
type liveInst struct {
	in  *liveInputs
	tr  *tracer
	dir string

	stacks    []*server.Stack
	built     int // daemons built so far, naming their storage roots
	conns     []*connCounters
	events    []*eventTap
	serveWG   sync.WaitGroup
	router    *fed.Router
	admin     []*dvlib.Context // per context, dialed straight to its daemon
	adminCli  []*dvlib.Client
	load      []*dvlib.Client
	loadCtx   [][]*dvlib.Context // per client, per context
	sweepPos  int
	warm      *phaseResult // the set-up's untimed warm pass
	nextID    atomic.Uint64
	sideDeliv atomic.Int64 // deliveries to the benchmark's own hub subscriptions
	pubDeliv  *latencies   // traced: publish→deliver of explorer steps
	pubMu     sync.Mutex
}

// eventTap wraps the launcher's Events seam of a Stack: it times core's
// ingestion of StepProduced/SimEnded and remembers when each step was
// produced, for the publish→deliver and useful-step figures.
type eventTap struct {
	inner    simulator.Events
	tr       *tracer
	mu       sync.Mutex
	produced map[int]int64  // step → tracer time of its StepProduced
	owner    map[int]uint64 // step → access id that is waiting on it
}

func (e *eventTap) SimStarted(id int64) { e.inner.SimStarted(id) }

func (e *eventTap) StepProduced(id int64, step int) {
	tr := e.tr
	start := tr.now()
	e.mu.Lock()
	e.produced[step] = start
	aid := e.owner[step]
	e.mu.Unlock()
	e.inner.StepProduced(id, step)
	tr.record("core.event", aid, -1, start, tr.now())
}

func (e *eventTap) SimEnded(id int64, outcome simulator.Outcome) {
	tr := e.tr
	start := tr.now()
	e.inner.SimEnded(id, outcome)
	tr.record("core.event", 0, -1, start, tr.now())
}

// setupLive builds the daemons, preloads the resident set through them,
// dials the load clients and runs one untimed warm pass.
func setupLive(in *liveInputs, workDir string, tr *tracer) (li *liveInst, err error) {
	dir, err := os.MkdirTemp(workDir, in.kind+"-")
	if err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	li = &liveInst{in: in, tr: tr, dir: dir, warm: newPhaseResult(), pubDeliv: newLatencies()}
	defer func() {
		if err != nil {
			li.close()
			li = nil
		}
	}()
	if err := li.startDaemons(); err != nil {
		return li, err
	}
	for ci, ctx := range in.contexts {
		c, err := dvlib.Dial(li.stacks[li.daemonOf(ci)].Server.Addr(), "bench-admin-"+ctx.Name)
		if err != nil {
			return li, fmt.Errorf("dial admin: %w", err)
		}
		li.adminCli = append(li.adminCli, c)
		dc, err := c.Init(ctx.Name)
		if err != nil {
			return li, fmt.Errorf("init %s: %w", ctx.Name, err)
		}
		li.admin = append(li.admin, dc)
	}
	addr := li.stacks[0].Server.Addr()
	if li.router != nil {
		addr = li.router.Addr()
	}
	for c := 0; c < liveClients; c++ {
		cli, err := dvlib.Dial(addr, fmt.Sprintf("bench-client-%d", c))
		if err != nil {
			return li, fmt.Errorf("dial client: %w", err)
		}
		li.load = append(li.load, cli)
		var ctxs []*dvlib.Context
		for _, ctx := range in.contexts {
			dc, err := cli.Init(ctx.Name)
			if err != nil {
				return li, fmt.Errorf("client init %s: %w", ctx.Name, err)
			}
			ctxs = append(ctxs, dc)
		}
		li.loadCtx = append(li.loadCtx, ctxs)
	}
	if in.kind == "resim-mixed" {
		// The reader pins the hot set: one reference per file, held
		// until the client disconnects, so eviction cannot take it.
		rd := li.loadCtx[0][0]
		for _, f := range in.resident[0] {
			if _, err := rd.Open(f.name); err != nil {
				return li, fmt.Errorf("pin %s: %w", f.name, err)
			}
			if err := rd.WaitAvailable(f.name); err != nil {
				return li, fmt.Errorf("preload %s: %w", f.name, err)
			}
		}
	} else {
		for ci, rs := range in.resident {
			for _, f := range rs {
				if _, err := li.admin[ci].Open(f.name); err != nil {
					return li, fmt.Errorf("preload %s: %w", f.name, err)
				}
				if err := li.admin[ci].WaitAvailable(f.name); err != nil {
					return li, fmt.Errorf("preload %s: %w", f.name, err)
				}
				if err := li.admin[ci].Close(f.name); err != nil {
					return li, fmt.Errorf("preload %s: %w", f.name, err)
				}
			}
		}
	}
	// A failed warm-pass access does not abort the set-up: the timed
	// phase counts the same failures where they are reported.
	li.runClients(time.Time{}, li.warm)
	return li, nil
}

// daemonOf returns the daemon index serving context ci.
func (li *liveInst) daemonOf(ci int) int {
	if len(li.stacks) == 1 {
		return 0
	}
	return ci
}

// startDaemons builds one daemon per context for the routed workload
// (retrying until the router's ring places context i on daemon i), or a
// single daemon otherwise.
func (li *liveInst) startDaemons() error {
	if li.in.kind != "warm-scan-routed" {
		return li.startStacks(li.in.contexts)
	}
	for attempt := 0; attempt < 64; attempt++ {
		if err := li.startStacks(li.in.contexts); err != nil {
			return err
		}
		addrs := []string{li.stacks[0].Server.Addr(), li.stacks[1].Server.Addr()}
		r := fed.NewRouter(addrs, 0, nil)
		ring := r.Ring()
		if ring.Owner(li.in.contexts[0].Name) == addrs[0] && ring.Owner(li.in.contexts[1].Name) == addrs[1] {
			if err := r.Listen("127.0.0.1:0"); err != nil {
				return err
			}
			li.router = r
			li.serveWG.Add(1)
			go func() {
				defer li.serveWG.Done()
				_ = r.Serve()
			}()
			return nil
		}
		li.stopStacks()
	}
	return errors.New("routed: the ring never split the two contexts across the daemons")
}

func (li *liveInst) startStacks(ctxs []*model.Context) error {
	perDaemon := [][]*model.Context{ctxs}
	if li.in.kind == "warm-scan-routed" {
		perDaemon = [][]*model.Context{{ctxs[0]}, {ctxs[1]}}
	}
	for _, cs := range perDaemon {
		var copies []*model.Context
		for _, c := range cs {
			cc := *c
			copies = append(copies, &cc)
		}
		li.built++
		st, err := server.NewStack(filepath.Join(li.dir, fmt.Sprintf("daemon%d", li.built)), 1, "DCL", copies...)
		if err != nil {
			return fmt.Errorf("daemon: %w", err)
		}
		var cc *connCounters
		if li.tr != nil {
			cc = &connCounters{}
			st.Server.WrapConn = cc.wrap
			tap := &eventTap{inner: st.Launcher.Events, tr: li.tr, produced: map[int]int64{}, owner: map[int]uint64{}}
			st.Launcher.Events = tap
			li.events = append(li.events, tap)
			write := st.Launcher.Write
			st.Launcher.Write = func(ctx *model.Context, step int) error {
				start := li.tr.now()
				err := write(ctx, step)
				tap.mu.Lock()
				aid := tap.owner[step]
				tap.mu.Unlock()
				li.tr.record("vfs.write", aid, -1, start, li.tr.now())
				return err
			}
		}
		if err := st.Server.Listen("127.0.0.1:0"); err != nil {
			st.Close()
			return fmt.Errorf("daemon listen: %w", err)
		}
		li.stacks = append(li.stacks, st)
		li.conns = append(li.conns, cc)
		li.serveWG.Add(1)
		go func() {
			defer li.serveWG.Done()
			_ = st.Server.Serve()
		}()
	}
	return nil
}

func (li *liveInst) stopStacks() {
	for _, st := range li.stacks {
		st.Close()
	}
	li.serveWG.Wait()
	for _, st := range li.stacks {
		st.Launcher.Wait()
	}
	li.stacks, li.conns, li.events = nil, nil, nil
}

func (li *liveInst) close() {
	for _, c := range li.load {
		c.Close()
	}
	for _, c := range li.adminCli {
		c.Close()
	}
	if li.router != nil {
		li.router.Close()
	}
	li.stopStacks()
	os.RemoveAll(li.dir)
}

// phaseResult is what one timed phase (or warm pass) of a workload saw.
type phaseResult struct {
	attempted, failed int64
	firstErr          string
	hitLat, missLat   *latencies
	readerAcc         int64        // accesses made as hits (resim-mixed: the reader's)
	explorerAcc       int64        // accesses made as misses (resim-mixed: the explorer's)
	completed         atomic.Int64 // accesses that succeeded, for the sampler
	mu                sync.Mutex
}

func newPhaseResult() *phaseResult {
	return &phaseResult{hitLat: newLatencies(), missLat: newLatencies()}
}

func (p *phaseResult) add(lat time.Duration, miss bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if miss {
		p.explorerAcc++
	} else {
		p.readerAcc++
	}
	if err != nil {
		p.failed++
		if p.firstErr == "" {
			p.firstErr = err.Error()
		}
		return
	}
	p.completed.Add(1)
	if miss {
		p.missLat.add(lat)
	} else {
		p.hitLat.add(lat)
	}
}

var errMismatch = errors.New("mean/variance differ from the expected values")

// access is the paper's analysis access: nc_open, a read of the whole
// field, mean and variance, nc_close. It returns the open→close time.
func (li *liveInst) access(dc *dvlib.Context, name string, aid uint64) (time.Duration, error) {
	tr := li.tr
	want := li.in.expect[name]
	start := wallNow()
	root := tr.begin("access", aid, -1)
	s := tr.begin("ioshim.open", aid, root)
	f, err := ioshim.NCOpen(dc, name)
	tr.end(s)
	if err != nil {
		tr.end(root)
		return 0, fmt.Errorf("open %s: %w", name, err)
	}
	s = tr.begin("ioshim.read", aid, root)
	xs, err := f.VaraGetDouble(0, fileBytes/8)
	tr.end(s)
	if err != nil {
		_ = f.Close()
		tr.end(root)
		return 0, fmt.Errorf("read %s: %w", name, err)
	}
	s = tr.begin("ioshim.meanvar", aid, root)
	mean, variance := ioshim.MeanVar(xs)
	tr.end(s)
	s = tr.begin("ioshim.close", aid, root)
	err = f.Close()
	tr.end(s)
	tr.end(root)
	lat := wallNow().Sub(start)
	if err != nil {
		return lat, fmt.Errorf("close %s: %w", name, err)
	}
	if mean != want.mean || variance != want.variance {
		return lat, fmt.Errorf("%s: %w", name, errMismatch)
	}
	return lat, nil
}

// runClients runs the load clients in a closed loop, each repeating whole
// rounds of its accesses until the deadline has passed. A zero deadline
// is the warm pass: one round per client, except in resim-mixed, where
// the explorer makes warmRounds rounds (more accesses than the cache
// holds, so it reaches its evicting steady state) while the reader
// repeats rounds alongside.
func (li *liveInst) runClients(deadline time.Time, res *phaseResult) {
	var wg sync.WaitGroup
	more := func(round int) bool { return round == 0 || (!deadline.IsZero() && wallNow().Before(deadline)) }
	if li.in.kind == "resim-mixed" {
		var swept atomic.Bool
		wg.Add(2)
		go func() {
			defer wg.Done()
			rd := li.loadCtx[0][0]
			for round := 0; more(round) || (deadline.IsZero() && !swept.Load()); round++ {
				for _, f := range li.in.orders[0] {
					lat, err := li.access(rd, f.name, li.nextID.Add(1))
					res.add(lat, false, err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			defer swept.Store(true)
			ex := li.loadCtx[1][0]
			for round := 0; more(round) || (deadline.IsZero() && round < warmRounds); round++ {
				for i := 0; i < sweepRound; i++ {
					f := li.in.sweep[li.sweepPos]
					li.sweepPos = (li.sweepPos + 1) % len(li.in.sweep)
					lat, err := li.explore(ex, f)
					res.add(lat, true, err)
				}
			}
		}()
	} else {
		for c := range li.load {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for round := 0; more(round); round++ {
					for _, f := range li.in.orders[c] {
						lat, err := li.access(li.loadCtx[c][f.ctx], f.name, li.nextID.Add(1))
						res.add(lat, false, err)
					}
				}
			}(c)
		}
	}
	wg.Wait()
}

// explore is one explorer access of resim-mixed. In traced runs it also
// watches the file's topic on the daemon's notify hub, to time the hop
// from the produced step to the delivered event.
func (li *liveInst) explore(dc *dvlib.Context, f fileRef) (time.Duration, error) {
	aid := li.nextID.Add(1)
	if li.tr == nil {
		return li.access(dc, f.name, aid)
	}
	st := li.stacks[0]
	tap := li.events[0]
	tap.mu.Lock()
	tap.owner[f.step] = aid
	tap.mu.Unlock()
	sub := st.V.Hub().Subscribe(notify.Topic{Context: li.in.contexts[0].Name, Step: f.step})
	got := make(chan int64, 1)
	go func() {
		_, ok := <-sub.C()
		if ok {
			got <- li.tr.now()
		}
		close(got)
	}()
	lat, err := li.access(dc, f.name, aid)
	sub.Close()
	if at, ok := <-got; ok {
		li.sideDeliv.Add(1)
		tap.mu.Lock()
		pub, known := tap.produced[f.step]
		tap.mu.Unlock()
		if known {
			li.pubMu.Lock()
			li.pubDeliv.add(time.Duration(at - pub))
			li.pubMu.Unlock()
		}
	}
	tap.mu.Lock()
	delete(tap.owner, f.step)
	tap.mu.Unlock()
	return lat, err
}

// liveCounters is a snapshot of the program's public counters.
type liveCounters struct {
	stats  []netproto.Stats // per context
	conns  []connSnapshot   // per daemon
	lock   [3]float64       // acquisitions, contended, wait ns (all daemons)
	sched  [4]float64       // submitted, queued, dropped, demand wait ns
	hubDel uint64
}

func (li *liveInst) counters() (liveCounters, error) {
	var lc liveCounters
	for ci, dc := range li.admin {
		s, err := dc.Stats()
		if err != nil {
			return lc, fmt.Errorf("stats %s: %w", li.in.contexts[ci].Name, err)
		}
		lc.stats = append(lc.stats, s)
	}
	for i, st := range li.stacks {
		lc.conns = append(lc.conns, li.conns[i].snapshot())
		ls := st.V.TotalLockStats()
		lc.lock[0] += float64(ls.Acquisitions)
		lc.lock[1] += float64(ls.Contended)
		lc.lock[2] += float64(ls.Wait)
		ss := st.V.SchedStats()
		lc.sched[0] += float64(ss.Submitted)
		lc.sched[1] += float64(ss.Queued)
		lc.sched[2] += float64(ss.Dropped)
		lc.sched[3] += float64(ss.DemandWait.Wait)
		lc.hubDel += st.V.Hub().Stats().Delivered
	}
	return lc, nil
}

func sumStats(ss []netproto.Stats) (t netproto.Stats) {
	for _, s := range ss {
		t.Opens += s.Opens
		t.Hits += s.Hits
		t.Misses += s.Misses
		t.Restarts += s.Restarts
		t.StepsProduced += s.StepsProduced
		t.Evictions += s.Evictions
		t.PrefetchLaunches += s.PrefetchLaunches
		t.Kills += s.Kills
		t.DroppedPrefetch += s.DroppedPrefetch
	}
	return t
}

// opCounts sums the daemons' per-op dispatch counts (each live context
// has a daemon of its own), leaving out the benchmark's own stats calls.
func opCounts(ss []netproto.Stats) float64 {
	var n float64
	for _, s := range ss {
		for _, o := range s.Ops {
			if o.Op != netproto.OpStats {
				n += float64(o.Count)
			}
		}
	}
	return n
}

// opP50 returns the largest per-daemon p50 service time of op, in µs.
func opP50(ss []netproto.Stats, op string) float64 {
	var p float64
	for _, s := range ss {
		for _, o := range s.Ops {
			if o.Op == op {
				p = max(p, float64(o.P50Ns)/1e3)
			}
		}
	}
	return p
}
