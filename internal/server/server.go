// Package server implements the DV daemon (paper Sec. III): a TCP server
// exposing the Virtualizer to DVLib clients over the netproto wire
// protocol. Each connection serves one analysis application; waits,
// acquires and subscriptions are answered asynchronously over the same
// connection when re-simulations produce the requested files.
//
// A connection opens with the protocol handshake (netproto.OpHello):
// version and capability negotiation plus the client's name. Any other
// first frame — a pre-versioned client, or something else entirely — is
// answered with a structured CodeVersion error before the connection
// closes. After the handshake every frame is a typed envelope; requests
// the daemon cannot decode are answered with structured errors, and the
// connection is dropped only when the stream itself can no longer be
// trusted (oversize or truncated frames).
//
// Besides the data-plane ops the daemon serves a control plane
// (capability "admin"): live scheduler reconfiguration, cache-policy
// swaps, context registration/deregistration and per-context
// drain/resume — all without a restart.
//
// Readiness notifications ride the Virtualizer's notify hub: handlers
// subscribe to the files' (context, step) topics first and then query
// FileState, so no wakeup is lost and no waiter list is scanned under the
// Virtualizer's shard locks.
package server

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"simfs/internal/core"
	"simfs/internal/metrics"
	"simfs/internal/model"
	"simfs/internal/netproto"
	"simfs/internal/notify"
	"simfs/internal/sched"
)

// PeerNotifier is the federation seam: subscribeFiles hands files that
// are neither resident nor promised locally to it, and it watches them
// on peer daemons, republishing their ready/failed events into the
// local notify hub. *fed.Bridge implements it; a daemon without one
// keeps the strictly-local behavior (per-file not_produced replies).
type PeerNotifier interface {
	// WatchRemote registers interest in the files on every peer daemon.
	// The returned cancel withdraws the interest; it is never nil and is
	// safe to call more than once.
	WatchRemote(ctxName string, files []string) (cancel func())
	// PeerInfos lists the outbound peer links for the peers op.
	PeerInfos() []netproto.PeerInfo
}

// ContextRegistrar provisions and retires simulation contexts at
// runtime: it owns whatever surrounds the Virtualizer registration —
// storage areas, launcher wiring, the initial simulation. *Stack
// implements it; a bare Server without one refuses ctx-register with
// CodeUnsupported and falls back to plain Virtualizer removal for
// ctx-deregister.
type ContextRegistrar interface {
	// RegisterContext adds a context (creating its storage area) and, if
	// initialSim is set, runs the initial simulation so restart files and
	// original checksums exist before clients arrive.
	RegisterContext(ctx *model.Context, policy string, initialSim bool) error
	// DeregisterContext removes a drained context, keeping its storage
	// area on disk.
	DeregisterContext(name string) error
}

// Server is the DV daemon front-end.
type Server struct {
	v  *core.Virtualizer
	ln net.Listener

	// Registrar provisions contexts for ctx-register/ctx-deregister.
	// Optional; NewStack wires the Stack in.
	Registrar ContextRegistrar

	// Peers, when set before Serve (Stack.EnablePeers), federates the
	// daemon: subscriptions to files no local simulation will produce
	// are forwarded to peer daemons instead of failing not_produced.
	Peers PeerNotifier

	// DisableBinary keeps every session on the JSON codec: the daemon
	// stops advertising CapBinary and ignores clients requesting it.
	// Set it before Serve (cmd/simfs-dv's -no-binary flag); it exists
	// for debugging (greppable wire traffic) and as the versioned-JSON
	// baseline in benchmarks and skew tests.
	DisableBinary bool

	// WrapConn, when set before Serve, wraps every accepted connection —
	// the seam fault injectors (faults.ConnPlan) and instrumentation hook
	// into without touching the accept loop.
	WrapConn func(net.Conn) net.Conn

	mu     sync.Mutex
	conns  map[*session]struct{}
	closed bool
	wg     sync.WaitGroup
	logf   func(format string, args ...any)
	// asMu guards asInfo, the autoscale decision ledger: attachment
	// state plus a bounded ring of recent decisions, maintained by
	// autoscale-report and read by autoscale-status (simfs-ctl health).
	asMu   sync.Mutex
	asInfo netproto.AutoscaleInfo
	// lat tracks per-op dispatch service time (the synchronous half of a
	// request — async completions like a wait's ready frame are not
	// attributed here), surfaced through the stats frame.
	lat *metrics.LatencySet
}

// New wraps a Virtualizer. logf may be nil to silence logging.
func New(v *core.Virtualizer, logf func(string, ...any)) *Server {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Server{v: v, conns: map[*session]struct{}{}, logf: logf,
		lat: metrics.NewLatencySet(netproto.TimedOps()...)}
}

// Listen binds the daemon to addr (e.g. "127.0.0.1:7878"). Use port 0 for
// an ephemeral port; Addr reports the bound address.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.ln = ln
	return nil
}

// Addr returns the bound address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Serve accepts connections until Close. It returns nil after a clean
// shutdown.
func (s *Server) Serve() error {
	if s.ln == nil {
		return errors.New("server: Serve before Listen") //simfs:allow errcode misuse of the embedding API, never sent over the wire
	}
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if s.WrapConn != nil {
			conn = s.WrapConn(conn)
		}
		sess := &session{
			ServerConn: netproto.NewServerConn(conn, "daemon", s.logf),
			srv:        s,
			held:       map[string]map[string]int{},
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[sess] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(sess)
		}()
	}
}

// Close stops accepting and shuts down gracefully: every live session's
// pending waits, acquires and subscriptions are failed with a structured
// draining frame, buffered replies are flushed, and only then are the
// connections closed. A client that receives draining knows its request
// was not lost in flight — it can reconnect and retry.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	sessions := make([]*session, 0, len(s.conns))
	for sess := range s.conns {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	for _, sess := range sessions {
		sess.drain()
		sess.Close()
	}
	s.wg.Wait()
}

// session is one client connection: the shared framed connection plus
// the daemon's per-client state.
type session struct {
	*netproto.ServerConn
	srv *Server
	// held tracks open references (context → files → count) for
	// disconnect cleanup: a crashed analysis must not pin files forever.
	held map[string]map[string]int
	// mu guards subs: live hub subscriptions by request ID, closed on
	// unsubscribe and on disconnect so their pump goroutines exit.
	mu   sync.Mutex
	subs map[uint64]*notify.Sub
	// fedMu guards fedWatches: live fed-watch subscriptions by request
	// ID, tracked separately from subs so the peers op can report the
	// inbound federation ledger (live topics, forwarded events) per
	// peer session. fedEvents counts events forwarded over this link.
	fedMu      sync.Mutex
	fedWatches map[uint64]*fileWatch
	fedEvents  atomic.Uint64
}

// addFedWatch registers a live fed-watch for the inbound peer ledger.
func (sess *session) addFedWatch(id uint64, w *fileWatch) {
	sess.fedMu.Lock()
	if sess.fedWatches == nil {
		sess.fedWatches = map[uint64]*fileWatch{}
	}
	sess.fedWatches[id] = w
	sess.fedMu.Unlock()
}

// dropFedWatch forgets a fed-watch once its pump ends.
func (sess *session) dropFedWatch(id uint64) {
	sess.fedMu.Lock()
	delete(sess.fedWatches, id)
	sess.fedMu.Unlock()
}

// addSub registers a live subscription for cleanup.
func (sess *session) addSub(id uint64, sub *notify.Sub) {
	sess.mu.Lock()
	if sess.subs == nil {
		sess.subs = map[uint64]*notify.Sub{}
	}
	sess.subs[id] = sub
	sess.mu.Unlock()
}

// dropSub forgets (and returns) a subscription.
func (sess *session) dropSub(id uint64) *notify.Sub {
	sess.mu.Lock()
	sub := sess.subs[id]
	delete(sess.subs, id)
	sess.mu.Unlock()
	return sub
}

// drain performs the graceful half of shutdown for one session: every
// pending wait/acquire/subscribe request is answered with a terminal
// draining frame (so the client's call returns with a retryable error
// instead of a dead connection), and the coalesced reply buffer is
// flushed so nothing the dispatch loop already answered is lost.
func (sess *session) drain() {
	sess.mu.Lock()
	ids := make([]uint64, 0, len(sess.subs))
	subs := make([]*notify.Sub, 0, len(sess.subs))
	for id, sub := range sess.subs {
		ids = append(ids, id)
		subs = append(subs, sub)
	}
	sess.subs = nil
	sess.mu.Unlock()
	// Close the subscriptions first so their pump goroutines stop sending;
	// then the draining frames below are the last word on each request ID.
	for _, sub := range subs {
		sub.Close()
	}
	for _, id := range ids {
		sess.Reply(netproto.Response{ID: id, Code: netproto.CodeDraining,
			Err: "daemon shutting down", Done: true})
	}
	sess.Flush()
}

// closeSubs closes every live subscription (disconnect cleanup).
func (sess *session) closeSubs() {
	sess.mu.Lock()
	subs := make([]*notify.Sub, 0, len(sess.subs))
	for _, sub := range sess.subs {
		subs = append(subs, sub)
	}
	sess.subs = nil
	sess.mu.Unlock()
	for _, sub := range subs {
		sub.Close()
	}
}

// codeOf maps a handler error to its structured wire code. Client
// mistakes are the wrapped sentinels (ErrInvalid and friends);
// everything unclassified — filesystem faults, invariant violations,
// anything a handler did not anticipate — is the daemon's problem and
// classifies as internal, so a client dispatching on the code never
// mistakes a daemon bug for bad input.
//
// The errcode analyzer checks this table: every //simfs:errcode
// sentinel registered in the imported packages must appear in a case.
//
//simfs:errcode-table
func codeOf(err error) netproto.ErrCode {
	var qerr *core.QuarantineError
	switch {
	case errors.As(err, &qerr):
		// Quarantined intervals fail fast; the caller fills the structured
		// Attempts/RetryAfterNs fields from the error.
		return netproto.CodeFailed
	case errors.Is(err, core.ErrUnknownContext):
		return netproto.CodeNoSuchContext
	case errors.Is(err, core.ErrDraining), errors.Is(err, core.ErrBusy):
		return netproto.CodeBusy
	case errors.Is(err, core.ErrNotProduced):
		return netproto.CodeNotProduced
	case errors.Is(err, core.ErrInvalid):
		return netproto.CodeBadRequest
	default:
		return netproto.CodeInternal
	}
}

// handle serves one connection until it closes, then cleans up after
// the departed client.
func (s *Server) handle(sess *session) {
	sess.Serve(sess.dispatch, nil)
	s.mu.Lock()
	delete(s.conns, sess)
	s.mu.Unlock()
	// Tear down notification subscriptions, then release references held
	// by the departed client.
	sess.closeSubs()
	client := sess.Client()
	for ctx, files := range sess.held {
		for file, n := range files {
			for i := 0; i < n; i++ {
				if err := s.v.Release(client, ctx, file); err != nil {
					break
				}
			}
		}
	}
	// With the references gone, the client's speculative work can be
	// dismantled: queued prefetch jobs are de-queued and running prefetch
	// simulations nobody else waits for are killed.
	if client != "" {
		s.v.ClientDisconnected(client)
	}
}

// dispatch serves one envelope and records its service time (the
// synchronous half of the request) in the per-op latency histograms.
func (sess *session) dispatch(env netproto.Envelope) bool {
	t0 := time.Now() //simfs:allow wallclock live daemon service-time stamps feed the latency histograms, not the simulation
	open := sess.srv.dispatch(sess, env)
	sess.srv.lat.Record(env.Op, time.Since(t0)) //simfs:allow wallclock live daemon service-time stamps feed the latency histograms, not the simulation
	return open
}

// dispatch serves one envelope; it reports whether the connection should
// stay open.
func (s *Server) dispatch(sess *session, env netproto.Envelope) bool {
	id := env.ID
	fail := func(err error) {
		resp := netproto.Response{ID: id, Code: codeOf(err), Err: err.Error()}
		var qerr *core.QuarantineError
		if errors.As(err, &qerr) {
			resp.Attempts = qerr.Attempts
			resp.RetryAfterNs = int64(qerr.RetryAfter)
		}
		sess.Reply(resp)
	}
	// decode unmarshals the typed body, answering a structured
	// bad-request (with the op and request ID wrapped in) on failure.
	decode := func(v any) bool {
		if err := env.Decode(v); err != nil {
			sess.Reply(netproto.Response{ID: id, Code: netproto.CodeBadRequest, Err: err.Error()})
			return false
		}
		return true
	}

	switch env.Op {
	case netproto.OpHello:
		caps := []string{netproto.CapAdmin, netproto.CapWatch, netproto.CapPreempt, netproto.CapFed, netproto.CapAutoscale}
		if !s.DisableBinary {
			caps = append(caps, netproto.CapBinary)
		}
		return sess.Hello(env, caps)

	case netproto.OpPing:
		sess.Reply(netproto.Response{ID: id, OK: true})

	case netproto.OpContexts:
		sess.Reply(netproto.Response{ID: id, OK: true, Names: s.v.ContextNames()})

	case netproto.OpContextInfo:
		var b netproto.CtxBody
		if !decode(&b) {
			return true
		}
		ctx, ok := s.v.Context(b.Context)
		if !ok {
			fail(fmt.Errorf("%w %q", core.ErrUnknownContext, b.Context))
			return true
		}
		policy, _ := s.v.CachePolicyName(b.Context)
		draining, _ := s.v.Draining(b.Context)
		sess.Reply(netproto.Response{ID: id, OK: true, Info: &netproto.ContextInfo{
			Name:        ctx.Name,
			StorageDir:  ctx.StorageDir,
			FilePrefix:  ctx.FilePrefix,
			FileSuffix:  ctx.FileSuffix,
			DeltaD:      ctx.Grid.DeltaD,
			DeltaR:      ctx.Grid.DeltaR,
			Timesteps:   ctx.Grid.Timesteps,
			OutputBytes: ctx.OutputBytes,
			Policy:      policy,
			Draining:    draining,
		}})

	case netproto.OpOpen:
		var b netproto.FileBody
		if !decode(&b) {
			return true
		}
		res, err := s.v.Open(sess.Client(), b.Context, b.File)
		if err != nil {
			fail(err)
			return true
		}
		sess.trackRef(b.Context, b.File, +1)
		sess.Reply(netproto.Response{ID: id, OK: true, Available: res.Available, EstWaitNs: int64(res.EstWait)})

	case netproto.OpWait:
		var b netproto.FileBody
		if !decode(&b) {
			return true
		}
		if err := s.waitFile(sess, id, b.Context, b.File); err != nil {
			fail(err)
		}

	case netproto.OpRelease:
		var b netproto.FileBody
		if !decode(&b) {
			return true
		}
		if err := s.v.Release(sess.Client(), b.Context, b.File); err != nil {
			fail(err)
			return true
		}
		sess.trackRef(b.Context, b.File, -1)
		sess.Reply(netproto.Response{ID: id, OK: true})

	case netproto.OpAcquire:
		var b netproto.FilesBody
		if !decode(&b) {
			return true
		}
		if len(b.Files) == 0 {
			fail(fmt.Errorf("%w: acquire requires at least one file", core.ErrInvalid))
			return true
		}
		// Per-file readiness notifications let the client implement
		// Waitsome/Testsome; the fan-in below sends the final frame.
		if err := s.acquireWithPerFile(sess, id, b.Context, append([]string(nil), b.Files...)); err != nil {
			fail(err)
		}

	case netproto.OpEstWait:
		var b netproto.FileBody
		if !decode(&b) {
			return true
		}
		w, err := s.v.EstWait(b.Context, b.File)
		if err != nil {
			fail(err)
			return true
		}
		sess.Reply(netproto.Response{ID: id, OK: true, EstWaitNs: int64(w)})

	case netproto.OpBitrep:
		var b netproto.FileBody
		if !decode(&b) {
			return true
		}
		content, err := s.readStorage(b.Context, b.File)
		if err != nil {
			fail(err)
			return true
		}
		same, err := s.v.Bitrep(b.Context, b.File, content)
		if err != nil {
			fail(err)
			return true
		}
		sess.Reply(netproto.Response{ID: id, OK: true, Flag: same})

	case netproto.OpRegSum:
		var b netproto.ChecksumBody
		if !decode(&b) {
			return true
		}
		if err := s.v.RegisterChecksum(b.Context, b.File, b.Sum); err != nil {
			fail(err)
			return true
		}
		sess.Reply(netproto.Response{ID: id, OK: true})

	case netproto.OpStats:
		var b netproto.CtxBody
		if !decode(&b) {
			return true
		}
		st, err := s.v.Stats(b.Context)
		if err != nil {
			fail(err)
			return true
		}
		ls, _ := s.v.LockStats(b.Context)
		ss := s.v.SchedStats()
		retries, quarantined, _ := s.v.RetryStats(b.Context)
		// The context resolved above, so the control-plane state lookups
		// cannot fail; reporting them closes the loop for operators who
		// just issued a drain or cache-policy-set.
		draining, _ := s.v.Draining(b.Context)
		policy, _ := s.v.CachePolicyName(b.Context)
		sess.Reply(netproto.Response{ID: id, OK: true, Stats: &netproto.Stats{
			Opens: st.Opens, Hits: st.Hits, Misses: st.Misses,
			Restarts: st.Restarts, DemandRestarts: st.DemandRestarts,
			PrefetchLaunches: st.PrefetchLaunches, DroppedPrefetch: st.DroppedPrefetch,
			StepsProduced: st.StepsProduced, Evictions: st.Evictions,
			Kills: st.Kills, Failures: st.Failures, PollutionResets: st.PollutionResets,
			Draining: draining, CachePolicy: policy,
			LockAcquisitions: ls.Acquisitions, LockContended: ls.Contended,
			LockWaitNs:      int64(ls.Wait),
			SchedQueueDepth: ss.QueueDepth, SchedCoalesced: ss.Coalesced,
			SchedDropped: ss.Dropped, SchedCanceled: ss.Canceled,
			SchedDemandWaitNs: int64(ss.DemandWait.Wait),
			SchedGuidedWaitNs: int64(ss.GuidedWait.Wait),
			SchedAgentWaitNs:  int64(ss.AgentWait.Wait),
			SchedPreempted:    ss.Preempted,
			SchedQuotaRounds:  ss.QuotaRounds, SchedQuotaDeferred: ss.QuotaDeferred,
			SchedPromoted:    ss.Promoted,
			SchedRetries:     uint64(retries),
			SchedQuarantined: uint64(quarantined),
			SchedClientLoads: s.v.Scheduler().ClientLoads(),
			Ops:              opLatencies(s.lat.Summaries()),
		}})

	case netproto.OpPrefetch:
		var b netproto.FilesBody
		if !decode(&b) {
			return true
		}
		if len(b.Files) == 0 {
			fail(fmt.Errorf("%w: prefetch requires at least one file", core.ErrInvalid))
			return true
		}
		n, err := s.v.GuidedPrefetch(sess.Client(), b.Context, b.Files)
		if err != nil {
			fail(err)
			return true
		}
		sess.Reply(netproto.Response{ID: id, OK: true, Count: n})

	case netproto.OpRescan:
		var b netproto.CtxBody
		if !decode(&b) {
			return true
		}
		n, err := s.v.RescanStorageArea(b.Context)
		if err != nil {
			fail(err)
			return true
		}
		sess.Reply(netproto.Response{ID: id, OK: true, Count: n})

	case netproto.OpSubscribe:
		var b netproto.FilesBody
		if !decode(&b) {
			return true
		}
		if len(b.Files) == 0 {
			fail(fmt.Errorf("%w: subscribe requires at least one file", core.ErrInvalid))
			return true
		}
		if err := s.subscribeFiles(sess, id, b.Context, b.Files); err != nil {
			fail(err)
		}

	case netproto.OpFedWatch:
		var b netproto.FilesBody
		if !decode(&b) {
			return true
		}
		if len(b.Files) == 0 {
			fail(fmt.Errorf("%w: fed-watch requires at least one file", core.ErrInvalid))
			return true
		}
		if err := s.fedWatchFiles(sess, id, b.Context, b.Files); err != nil {
			fail(err)
		}

	case netproto.OpPeers:
		var infos []netproto.PeerInfo
		if s.Peers != nil {
			infos = append(infos, s.Peers.PeerInfos()...)
		}
		infos = append(infos, s.inboundPeerInfos()...)
		sess.Reply(netproto.Response{ID: id, OK: true, Peers: infos})

	case netproto.OpUnsubscribe:
		var b netproto.UnsubscribeBody
		if !decode(&b) {
			return true
		}
		if sub := sess.dropSub(b.SubID); sub != nil {
			sub.Close()
		}
		sess.Reply(netproto.Response{ID: id, OK: true})

	case netproto.OpSchedGet:
		cfg := s.v.SchedConfig()
		sess.Reply(netproto.Response{ID: id, OK: true, Sched: schedInfo(cfg)})

	case netproto.OpSchedSet:
		var b netproto.SchedSetBody
		if !decode(&b) {
			return true
		}
		// Validation happens in full before any field is applied: a
		// sched-set is atomic — either every knob lands or none does.
		if b.TotalNodes != nil && *b.TotalNodes < 0 {
			fail(fmt.Errorf("%w: total_nodes must be ≥ 0, got %d", core.ErrInvalid, *b.TotalNodes))
			return true
		}
		if b.DRRQuantum != nil && *b.DRRQuantum < 0 {
			fail(fmt.Errorf("%w: drr_quantum must be ≥ 0, got %d", core.ErrInvalid, *b.DRRQuantum))
			return true
		}
		if b.PreemptSunkCost != nil && (*b.PreemptSunkCost < 0 || *b.PreemptSunkCost > 1) {
			fail(fmt.Errorf("%w: preempt_sunk_cost must be in [0,1], got %g", core.ErrInvalid, *b.PreemptSunkCost))
			return true
		}
		var preempt sched.PreemptPolicy
		if b.PreemptPolicy != nil {
			var err error
			if preempt, err = sched.ParsePreemptPolicy(*b.PreemptPolicy); err != nil {
				fail(fmt.Errorf("%w: %v", core.ErrInvalid, err))
				return true
			}
		}
		// The partial update merges atomically under the scheduler's
		// mutex: concurrent sched-sets compose instead of overwriting
		// each other's fields with stale reads.
		cfg := s.v.UpdateSchedConfig(func(cfg sched.Config) sched.Config {
			if b.Coalesce != nil {
				cfg.Coalesce = *b.Coalesce
			}
			if b.Priorities != nil {
				cfg.Priorities = *b.Priorities
			}
			if b.TotalNodes != nil {
				cfg.TotalNodes = *b.TotalNodes
			}
			if b.PreemptPolicy != nil {
				cfg.Preempt = preempt
			}
			if b.DRRQuantum != nil {
				cfg.DRRQuantum = *b.DRRQuantum
			}
			if b.PreemptSunkCost != nil {
				cfg.PreemptSunkCost = *b.PreemptSunkCost
			}
			if b.PreemptGuided != nil {
				cfg.PreemptGuided = *b.PreemptGuided
			}
			if b.DemandJoin != nil {
				cfg.DemandJoin = *b.DemandJoin
			}
			return cfg
		})
		s.logf("server: scheduler reconfigured by %s: coalesce=%v priorities=%v nodes=%d preempt=%s quantum=%d sunkcost=%g guided=%v demandjoin=%v",
			sess.Client(), cfg.Coalesce, cfg.Priorities, cfg.TotalNodes, cfg.Preempt, cfg.DRRQuantum,
			cfg.PreemptSunkCost, cfg.PreemptGuided, cfg.DemandJoin)
		sess.Reply(netproto.Response{ID: id, OK: true, Sched: schedInfo(cfg)})

	case netproto.OpCachePolicySet:
		var b netproto.CachePolicyBody
		if !decode(&b) {
			return true
		}
		if err := s.v.SetCachePolicy(b.Context, b.Policy); err != nil {
			fail(err)
			return true
		}
		s.logf("server: context %s cache policy swapped to %s by %s", b.Context, b.Policy, sess.Client())
		sess.Reply(netproto.Response{ID: id, OK: true})

	case netproto.OpDrain:
		var b netproto.CtxBody
		if !decode(&b) {
			return true
		}
		if err := s.v.Drain(b.Context); err != nil {
			fail(err)
			return true
		}
		sess.Reply(netproto.Response{ID: id, OK: true})

	case netproto.OpResume:
		var b netproto.CtxBody
		if !decode(&b) {
			return true
		}
		if err := s.v.Resume(b.Context); err != nil {
			fail(err)
			return true
		}
		sess.Reply(netproto.Response{ID: id, OK: true})

	case netproto.OpQuarantineReset:
		var b netproto.CtxBody
		if !decode(&b) {
			return true
		}
		n, err := s.v.ResetQuarantine(b.Context)
		if err != nil {
			fail(err)
			return true
		}
		if b.Context == "" {
			s.logf("server: quarantine reset on all contexts by %s (%d released)", sess.Client(), n)
		} else {
			s.logf("server: quarantine reset on context %s by %s (%d released)", b.Context, sess.Client(), n)
		}
		sess.Reply(netproto.Response{ID: id, OK: true, Count: n})

	case netproto.OpAutoscaleReport:
		var b netproto.AutoscaleReportBody
		if !decode(&b) {
			return true
		}
		s.asMu.Lock()
		s.asInfo.Active = b.Active
		if b.Active {
			s.asInfo.Source = sess.Client()
			s.asInfo.Policies = b.Policies
		} else {
			// Detachment keeps the decision trail (health still shows
			// what the controller last did) but clears the live state.
			s.asInfo.Policies = nil
		}
		s.asInfo.Decisions = append(s.asInfo.Decisions, b.Decisions...)
		if n := len(s.asInfo.Decisions); n > autoscaleLogCap {
			s.asInfo.Decisions = append([]netproto.AutoscaleDecision(nil),
				s.asInfo.Decisions[n-autoscaleLogCap:]...)
		}
		s.asMu.Unlock()
		sess.Reply(netproto.Response{ID: id, OK: true, Count: len(b.Decisions)})

	case netproto.OpAutoscaleStatus:
		s.asMu.Lock()
		info := s.asInfo
		info.Policies = append([]string(nil), s.asInfo.Policies...)
		info.Decisions = append([]netproto.AutoscaleDecision(nil), s.asInfo.Decisions...)
		s.asMu.Unlock()
		sess.Reply(netproto.Response{ID: id, OK: true, Autoscale: &info})

	case netproto.OpCtxRegister:
		var b netproto.CtxRegisterBody
		if !decode(&b) {
			return true
		}
		if b.Context == nil {
			fail(fmt.Errorf("%w: ctx-register requires a context definition", core.ErrInvalid))
			return true
		}
		if s.Registrar == nil {
			sess.Reply(netproto.Response{ID: id, Code: netproto.CodeUnsupported,
				Err: "this daemon has no context registrar (storage provisioning unavailable)"})
			return true
		}
		if err := s.Registrar.RegisterContext(b.Context, b.Policy, b.InitialSim); err != nil {
			fail(err)
			return true
		}
		s.logf("server: context %s registered by %s (policy %s)", b.Context.Name, sess.Client(), b.Policy)
		sess.Reply(netproto.Response{ID: id, OK: true})

	case netproto.OpCtxDeregister:
		var b netproto.CtxBody
		if !decode(&b) {
			return true
		}
		var err error
		if s.Registrar != nil {
			err = s.Registrar.DeregisterContext(b.Context)
		} else {
			err = s.v.RemoveContext(b.Context)
		}
		if err != nil {
			fail(err)
			return true
		}
		s.logf("server: context %s deregistered by %s", b.Context, sess.Client())
		sess.Reply(netproto.Response{ID: id, OK: true})

	default:
		sess.Reply(netproto.Response{ID: id, Code: netproto.CodeUnsupported,
			Err: fmt.Sprintf("unknown op %q", env.Op)})
	}
	return true
}

// autoscaleLogCap bounds the daemon-side autoscale decision ring: enough
// recent history for simfs-ctl health, never an unbounded ledger.
const autoscaleLogCap = 64

// schedInfo mirrors a scheduler config onto the wire. The fieldsync
// analyzer holds it to SchedInfo's full field list, so a new knob
// cannot ship half-mirrored.
//
//simfs:sync netproto.SchedInfo
func schedInfo(cfg sched.Config) *netproto.SchedInfo {
	return &netproto.SchedInfo{
		Coalesce: cfg.Coalesce, Priorities: cfg.Priorities, TotalNodes: cfg.TotalNodes,
		PreemptPolicy: cfg.Preempt.String(), DRRQuantum: cfg.DRRQuantum,
		PreemptSunkCost: cfg.PreemptSunkCost, PreemptGuided: cfg.PreemptGuided,
		DemandJoin: cfg.DemandJoin,
	}
}

// opLatencies mirrors per-op latency summaries onto the wire.
func opLatencies(sums []metrics.OpLatency) []netproto.OpLatency {
	if len(sums) == 0 {
		return nil
	}
	out := make([]netproto.OpLatency, len(sums))
	for i, l := range sums {
		out[i] = netproto.OpLatency{Op: l.Op, Count: l.Count,
			P50Ns: int64(l.P50), P99Ns: int64(l.P99)}
	}
	return out
}

// inboundPeerInfos reports the inbound half of the federation ledger:
// one entry per connected session that carries fed-watch traffic, with
// its live topic count and the events forwarded over the link.
func (s *Server) inboundPeerInfos() []netproto.PeerInfo {
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.conns))
	for sess := range s.conns {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	var infos []netproto.PeerInfo
	for _, sess := range sessions {
		topics := 0
		sess.fedMu.Lock()
		for _, w := range sess.fedWatches {
			topics += int(w.pending.Load())
		}
		sess.fedMu.Unlock()
		events := sess.fedEvents.Load()
		if topics == 0 && events == 0 {
			continue
		}
		infos = append(infos, netproto.PeerInfo{
			Addr: sess.RemoteAddr().String(), Role: "in",
			Connected: true, Topics: topics, Events: events,
		})
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Addr < infos[j].Addr })
	return infos
}

// waitFile implements OpWait on the notify hub: subscribe to the file's
// topic, then check its state — any event published after the
// subscription is buffered, so no wakeup is lost.
func (s *Server) waitFile(sess *session, id uint64, ctxName, file string) error {
	topic, err := s.v.FileTopic(ctxName, file)
	if err != nil {
		return err
	}
	sub := s.v.Hub().Subscribe(topic)
	resident, promised, err := s.v.FileState(ctxName, file)
	if err != nil {
		sub.Close()
		return err
	}
	if resident {
		sub.Close()
		sess.Reply(netproto.Response{ID: id, OK: true, Ready: true, Done: true, File: file})
		return nil
	}
	// finish may run on the waiter goroutine, off the read loop: it must
	// flush its own frame (Send), not leave it in the reply buffer.
	finish := func(ev notify.Event) {
		resp := netproto.Response{ID: id, OK: ev.Err == "", Err: ev.Err,
			Ready: ev.Kind == notify.FileReady, Done: true, File: file}
		if ev.Err != "" {
			resp.Code = netproto.CodeFailed
			resp.Attempts = ev.Attempts
			resp.RetryAfterNs = ev.RetryAfter
		}
		sess.Send(resp)
	}
	if !promised {
		// The producing simulation may have resolved the file between
		// Subscribe and FileState; the event would be buffered.
		select {
		case ev := <-sub.C():
			sub.Close()
			finish(ev)
			return nil
		default:
			sub.Close()
			return fmt.Errorf("%w: %q is neither on disk nor promised; call open or acquire first",
				core.ErrNotProduced, file)
		}
	}
	sess.addSub(id, sub)
	go func() {
		defer sess.dropSub(id)
		if ev, ok := <-sub.C(); ok {
			if ev.Kind == notify.FileReady {
				s.v.NoteClientReady(sess.Client(), ctxName, file)
			}
			finish(ev)
			sub.Close()
		}
	}()
	return nil
}

// fileWatch is the shared subscribe-then-check machinery of OpAcquire and
// OpSubscribe: per-file readiness streamed over the connection, a final
// Done frame once every file has resolved.
type fileWatch struct {
	srv      *Server
	client   string
	ctxName  string
	sub      *notify.Sub
	names    map[notify.Topic]string // topic → file, for frame rendering
	resolved map[notify.Topic]bool
	// pending is atomic only so the peers op can read a live fed-watch's
	// remaining topic count; pump is the sole writer.
	pending atomic.Int64
	// fed marks an inbound fed-watch (peer daemon subscription): its
	// resolutions count into the session's forwarded-events ledger.
	fed bool
}

// watchTopics subscribes to every file's topic. The caller resolves the
// initial states before pumping events.
func (s *Server) watchTopics(client, ctxName string, files []string) (*fileWatch, error) {
	topics := make([]notify.Topic, len(files))
	for i, f := range files {
		t, err := s.v.FileTopic(ctxName, f)
		if err != nil {
			return nil, err
		}
		topics[i] = t
	}
	w := &fileWatch{
		srv:      s,
		client:   client,
		ctxName:  ctxName,
		names:    make(map[notify.Topic]string, len(files)),
		resolved: map[notify.Topic]bool{},
	}
	for i, t := range topics {
		w.names[t] = files[i]
	}
	w.sub = s.v.Hub().Subscribe(topics...)
	return w, nil
}

// pump streams buffered and future events as per-file frames until every
// topic has resolved, then sends the Done frame. failFast terminates the
// stream on the first failure (OpAcquire's legacy contract); otherwise
// each file resolves individually and Done still arrives (OpSubscribe).
func (w *fileWatch) pump(sess *session, reqID uint64, failFast bool) {
	defer sess.dropSub(reqID)
	for ev := range w.sub.C() {
		f, ok := w.names[ev.Topic]
		if !ok || w.resolved[ev.Topic] {
			continue
		}
		w.resolved[ev.Topic] = true
		w.pending.Add(-1)
		if w.fed {
			sess.fedEvents.Add(1)
		}
		if ev.Kind == notify.FileFailed {
			resp := netproto.Response{ID: reqID, Code: netproto.CodeFailed, Err: ev.Err, File: f,
				Attempts: ev.Attempts, RetryAfterNs: ev.RetryAfter}
			if failFast {
				resp.Done = true
				sess.Send(resp)
				w.sub.Close()
				return
			}
			sess.Send(resp)
		} else {
			// The client was blocked on this file: reset its τcli
			// baseline, as the in-process waiter path does.
			w.srv.v.NoteClientReady(w.client, w.ctxName, f)
			sess.Send(netproto.Response{ID: reqID, OK: true, Ready: true, File: f})
		}
		if w.pending.Load() == 0 {
			sess.Send(netproto.Response{ID: reqID, OK: true, Done: true})
			w.sub.Close()
			return
		}
	}
}

// acquireWithPerFile implements the acquire subscription: references are
// taken via Open (starting re-simulations), then readiness rides the
// notify hub — a per-file ready frame for each missing file plus a final
// done frame.
func (s *Server) acquireWithPerFile(sess *session, id uint64, ctxName string, files []string) error {
	w, err := s.watchTopics(sess.Client(), ctxName, files)
	if err != nil {
		return err
	}
	// Open every file (taking references) so re-simulations start.
	for i, f := range files {
		res, err := s.v.Open(sess.Client(), ctxName, f)
		if err != nil {
			// Roll back references taken so far, including the
			// disconnect-cleanup bookkeeping.
			for _, g := range files[:i] {
				_ = s.v.Release(sess.Client(), ctxName, g)
				sess.trackRef(ctxName, g, -1)
			}
			w.sub.Close()
			return err
		}
		sess.trackRef(ctxName, f, +1)
		if res.Available {
			topic, _ := s.v.FileTopic(ctxName, f)
			if !w.resolved[topic] {
				w.resolved[topic] = true
				sess.Reply(netproto.Response{ID: id, OK: true, Ready: true, File: f})
			}
		}
	}
	// A missing file may have been produced between Open and now; its
	// event is buffered in the subscription, so only count what is still
	// unresolved and let pump drain the buffer.
	w.pending.Store(int64(len(w.names) - len(w.resolved)))
	if w.pending.Load() == 0 {
		sess.Reply(netproto.Response{ID: id, OK: true, Done: true})
		w.sub.Close()
		return nil
	}
	sess.addSub(id, w.sub)
	go w.pump(sess, id, true)
	return nil
}

// subscribeFiles implements OpSubscribe: notification-only readiness
// frames with no references taken. Files must be resident or promised;
// files that are neither resolve immediately with a per-file error
// frame — unless the daemon is federated, in which case they stay
// pending and the bridge watches them on the peer daemons (the local
// hub republishes whatever a peer produces, so the pump below resolves
// them exactly like local productions).
func (s *Server) subscribeFiles(sess *session, id uint64, ctxName string, files []string) error {
	w, err := s.watchTopics(sess.Client(), ctxName, files)
	if err != nil {
		return err
	}
	var remote []string
	for _, f := range files {
		topic, _ := s.v.FileTopic(ctxName, f)
		if w.resolved[topic] {
			continue
		}
		resident, promised, err := s.v.FileState(ctxName, f)
		if err != nil {
			w.sub.Close()
			return err
		}
		switch {
		case resident:
			w.resolved[topic] = true
			sess.Reply(netproto.Response{ID: id, OK: true, Ready: true, File: f})
		case !promised:
			// Not being produced — unless its event raced into the
			// subscription buffer, which pump will deliver.
			if !bufferedEvent(w.sub, topic) {
				if s.Peers != nil {
					remote = append(remote, f)
				} else {
					w.resolved[topic] = true
					sess.Reply(netproto.Response{ID: id, Code: netproto.CodeNotProduced,
						Err: "file is not being produced", File: f})
				}
			}
		}
	}
	w.pending.Store(int64(len(w.names) - len(w.resolved)))
	if w.pending.Load() == 0 {
		sess.Reply(netproto.Response{ID: id, OK: true, Done: true})
		w.sub.Close()
		return nil
	}
	var cancelRemote func()
	if len(remote) > 0 {
		cancelRemote = s.Peers.WatchRemote(ctxName, remote)
	}
	sess.addSub(id, w.sub)
	go func() {
		w.pump(sess, id, false)
		if cancelRemote != nil {
			cancelRemote()
		}
	}()
	return nil
}

// fedWatchFiles implements OpFedWatch, the daemon↔daemon subscribe
// variant behind the fed capability. Unlike subscribe it keeps files
// nobody has promised yet pending — the remote daemon's producer may
// only be asked later — and it never consults s.Peers, so a peer mesh
// cannot forward an interest in circles: every interest bounces at
// most once, from the daemon the client asked to the producing peer.
func (s *Server) fedWatchFiles(sess *session, id uint64, ctxName string, files []string) error {
	w, err := s.watchTopics(sess.Client(), ctxName, files)
	if err != nil {
		return err
	}
	for _, f := range files {
		topic, _ := s.v.FileTopic(ctxName, f)
		if w.resolved[topic] {
			continue
		}
		resident, _, err := s.v.FileState(ctxName, f)
		if err != nil {
			w.sub.Close()
			return err
		}
		if resident {
			w.resolved[topic] = true
			sess.Reply(netproto.Response{ID: id, OK: true, Ready: true, File: f})
		}
	}
	w.pending.Store(int64(len(w.names) - len(w.resolved)))
	if w.pending.Load() == 0 {
		sess.Reply(netproto.Response{ID: id, OK: true, Done: true})
		w.sub.Close()
		return nil
	}
	w.fed = true
	sess.addSub(id, w.sub)
	sess.addFedWatch(id, w)
	go func() {
		w.pump(sess, id, false)
		sess.dropFedWatch(id)
	}()
	return nil
}

// bufferedEvent reports whether the subscription already holds an event
// for the topic. The hub's one-shot contract means a delivered topic is
// no longer subscribed, which is exactly the case this probes.
func bufferedEvent(sub *notify.Sub, topic notify.Topic) bool {
	return !sub.Subscribed(topic)
}

// readStorage reads a file's content from the context's storage area.
func (s *Server) readStorage(ctxName, file string) ([]byte, error) {
	fs, err := s.v.StorageArea(ctxName)
	if err != nil {
		return nil, err
	}
	if fs == nil {
		// A registered context without a storage area is a daemon-side
		// misconfiguration, not a client mistake: internal is the right
		// classification, so no sentinel is wrapped.
		return nil, fmt.Errorf("context %q has no storage area", ctxName) //simfs:allow errcode daemon-side invariant breach classifies as internal by design
	}
	return fs.Read(file)
}

func (sess *session) trackRef(ctx, file string, delta int) {
	m := sess.held[ctx]
	if m == nil {
		m = map[string]int{}
		sess.held[ctx] = m
	}
	m[file] += delta
	if m[file] <= 0 {
		delete(m, file)
	}
}
