package fed

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"simfs/internal/netproto"
)

// Router is the federation front-end: it speaks the ordinary client
// protocol (hello handshake, binary codec, reply coalescing) and
// forwards every data-plane op to the daemon owning its context on the
// consistent-hash ring. Forwarding reuses the batching fast path: a
// pipelined client batch is decoded, each envelope re-encoded into the
// owning peer's write buffer with a remapped request ID, and every
// touched peer flushed once per batch; replies demux back through the
// per-session ID table and coalesce into one write to the client.
//
// Peer connections are per client session, carrying the client's own
// name in their hello: the owning daemon sees one session per client
// and its reference/subscription cleanup on disconnect keeps working
// unchanged. Control-plane reads that have no single owner (contexts,
// stats) fan out to every member and merge.
//
// When a peer daemon dies, in-flight requests routed to it are
// answered with structured draining frames and later ops fail busy
// until the daemon returns — the same retryable codes a drained
// context surfaces, so reconnecting clients need no new error
// handling.
type Router struct {
	ring *Ring
	logf func(string, ...any)

	// CallTimeout bounds control-plane fan-out calls (contexts, stats,
	// sched-*). Set before Serve.
	CallTimeout time.Duration

	ln     net.Listener
	mu     sync.Mutex
	conns  map[*rsession]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewRouter builds a router over the given daemon addresses. replicas
// is the ring's virtual-node count (<=0 for the default); logf may be
// nil.
func NewRouter(peerAddrs []string, replicas int, logf func(string, ...any)) *Router {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Router{
		ring:        NewRing(replicas, peerAddrs...),
		logf:        logf,
		CallTimeout: 10 * time.Second,
		conns:       map[*rsession]struct{}{},
	}
}

// Ring exposes the routing table (tests assert placement against it).
func (r *Router) Ring() *Ring { return r.ring }

// Listen binds the router to addr (port 0 for ephemeral).
func (r *Router) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("fed: %w", err)
	}
	r.ln = ln
	return nil
}

// Addr returns the bound address.
func (r *Router) Addr() string {
	if r.ln == nil {
		return ""
	}
	return r.ln.Addr().String()
}

// Serve accepts client connections until Close.
func (r *Router) Serve() error {
	if r.ln == nil {
		return errors.New("fed: Serve before Listen")
	}
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			r.mu.Lock()
			closed := r.closed
			r.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		sess := &rsession{
			ServerConn: netproto.NewServerConn(conn, "router", r.logf),
			r:          r,
			peers:      map[string]*PeerConn{},
			routes:     map[uint64]peerRoute{},
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			conn.Close()
			return nil
		}
		r.conns[sess] = struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			r.handle(sess)
		}()
	}
}

// Close stops accepting and closes every client session (their peer
// connections close with them, so the daemons run disconnect cleanup
// for each proxied client).
func (r *Router) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	sessions := make([]*rsession, 0, len(r.conns))
	for sess := range r.conns {
		sessions = append(sessions, sess)
	}
	r.mu.Unlock()
	if r.ln != nil {
		r.ln.Close()
	}
	for _, sess := range sessions {
		sess.Close()
	}
	r.wg.Wait()
}

// peerRoute remembers where a live client subscription was forwarded,
// for unsubscribe remapping.
type peerRoute struct {
	pc     *PeerConn
	peerID uint64
}

// rsession is one client connection through the router.
type rsession struct {
	*netproto.ServerConn
	r *Router

	// mu guards peers (this session's sticky per-daemon connections)
	// and routes (client request ID → peer route for live streams).
	mu     sync.Mutex
	peers  map[string]*PeerConn
	routes map[uint64]peerRoute
	closed bool
}

// peer returns this session's connection to addr, dialing a fresh one
// if none is live. The conn's hello carries the client's own name, so
// the daemon's per-client accounting and disconnect cleanup see the
// real client, not the router.
func (sess *rsession) peer(addr string) (*PeerConn, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return nil, errors.New("fed: session closing")
	}
	if pc := sess.peers[addr]; pc != nil && !pc.Broken() {
		return pc, nil
	}
	delete(sess.peers, addr)
	pc, err := DialPeer(addr, sess.Client(), sess.Flush)
	if err != nil {
		return nil, err
	}
	sess.peers[addr] = pc
	return pc, nil
}

// flushPeers pushes every buffered forwarded request out, one write
// per touched peer.
func (sess *rsession) flushPeers() {
	sess.mu.Lock()
	peers := make([]*PeerConn, 0, len(sess.peers))
	for _, pc := range sess.peers {
		peers = append(peers, pc)
	}
	sess.mu.Unlock()
	for _, pc := range peers {
		pc.Flush()
	}
}

func (sess *rsession) addRoute(clientID uint64, rt peerRoute) {
	sess.mu.Lock()
	sess.routes[clientID] = rt
	sess.mu.Unlock()
}

func (sess *rsession) dropRoute(clientID uint64) (peerRoute, bool) {
	sess.mu.Lock()
	rt, ok := sess.routes[clientID]
	delete(sess.routes, clientID)
	sess.mu.Unlock()
	return rt, ok
}

// handle serves one client connection until it closes, then closes
// its peer connections.
func (r *Router) handle(sess *rsession) {
	// At a batch end, requests go out first (the daemons can start
	// working), then the locally produced replies, one write each.
	sess.Serve(sess.dispatch, sess.flushPeers)
	r.mu.Lock()
	delete(r.conns, sess)
	r.mu.Unlock()
	// Closing the per-session peer conns is the whole disconnect story:
	// each daemon sees its session for this client drop and runs its own
	// reference/subscription cleanup.
	sess.mu.Lock()
	sess.closed = true
	peers := make([]*PeerConn, 0, len(sess.peers))
	for _, pc := range sess.peers {
		peers = append(peers, pc)
	}
	sess.peers = map[string]*PeerConn{}
	sess.mu.Unlock()
	for _, pc := range peers {
		pc.Close()
	}
}

// contextOf extracts the routing key (context name) from an envelope,
// decoding the body type the op table names for it.
func contextOf(env netproto.Envelope, route any) (string, error) {
	var err error
	switch route.(type) {
	case netproto.FileBody:
		var b netproto.FileBody
		err = env.Decode(&b)
		return b.Context, err
	case netproto.FilesBody:
		var b netproto.FilesBody
		err = env.Decode(&b)
		return b.Context, err
	case netproto.CtxBody:
		var b netproto.CtxBody
		err = env.Decode(&b)
		return b.Context, err
	case netproto.ChecksumBody:
		var b netproto.ChecksumBody
		err = env.Decode(&b)
		return b.Context, err
	case netproto.CachePolicyBody:
		var b netproto.CachePolicyBody
		err = env.Decode(&b)
		return b.Context, err
	case netproto.CtxRegisterBody:
		var b netproto.CtxRegisterBody
		if err = env.Decode(&b); err != nil || b.Context == nil {
			return "", err
		}
		return b.Context.Name, nil
	}
	return "", fmt.Errorf("fed: op %q has no routing context", env.Op)
}

// dispatch serves one client envelope; it reports whether the
// connection should stay open.
func (sess *rsession) dispatch(env netproto.Envelope) bool {
	r, id := sess.r, env.ID
	switch env.Op {
	case netproto.OpHello:
		// The router always advertises the binary fast path; a JSON-only
		// daemon behind it is bridged by the per-peer codec negotiation.
		return sess.Hello(env, []string{netproto.CapAdmin, netproto.CapWatch, netproto.CapPreempt,
			netproto.CapBinary, netproto.CapFed})

	case netproto.OpPing:
		sess.Reply(netproto.Response{ID: id, OK: true})

	case netproto.OpPeers:
		sess.mu.Lock()
		live := make(map[string]bool, len(sess.peers))
		for addr, pc := range sess.peers {
			live[addr] = !pc.Broken()
		}
		sess.mu.Unlock()
		members := r.ring.Members()
		infos := make([]netproto.PeerInfo, len(members))
		for i, addr := range members {
			infos[i] = netproto.PeerInfo{Addr: addr, Role: "member", Connected: live[addr]}
		}
		sess.Reply(netproto.Response{ID: id, OK: true, Peers: infos})

	case netproto.OpContexts:
		r.fanContexts(sess, id)

	case netproto.OpSchedGet:
		r.fanSchedGet(sess, id)

	case netproto.OpSchedSet:
		r.fanSchedSet(sess, id, env)

	case netproto.OpUnsubscribe:
		var b netproto.UnsubscribeBody
		if err := env.Decode(&b); err != nil {
			sess.Reply(netproto.Response{ID: id, Code: netproto.CodeBadRequest, Err: err.Error()})
			return true
		}
		if rt, ok := sess.dropRoute(b.SubID); ok {
			rt.pc.Post(netproto.OpUnsubscribe, netproto.UnsubscribeBody{SubID: rt.peerID})
		}
		// Unknown subscriptions ack like the daemon does (idempotent).
		sess.Reply(netproto.Response{ID: id, OK: true})

	default:
		spec := netproto.Spec(env.Op)
		ctxName, err := contextOf(env, spec.Route)
		if err != nil {
			sess.Reply(netproto.Response{ID: id, Code: netproto.CodeBadRequest, Err: err.Error()})
			return true
		}
		switch {
		case env.Op == netproto.OpStats:
			r.fanStats(sess, id, ctxName)
		case env.Op == netproto.OpQuarantineReset && ctxName == "":
			// "All contexts" spans every daemon: fan out and sum.
			r.fanQuarantineReset(sess, id)
		default:
			r.proxy(sess, env, ctxName, spec.Stream)
		}
	}
	return true
}

// proxy forwards env to the daemon owning ctxName, remapping the
// request ID and demuxing every response frame (including streams)
// back onto this session.
func (r *Router) proxy(sess *rsession, env netproto.Envelope, ctxName string, stream bool) {
	clientID := env.ID
	fail := func(err error) {
		resp := netproto.Response{ID: clientID, Code: netproto.CodeBusy,
			Err: fmt.Sprintf("context %q unreachable: %v", ctxName, err), Done: stream}
		sess.Reply(resp)
	}
	owner := r.ring.Owner(ctxName)
	if owner == "" {
		fail(errors.New("no federation members configured"))
		return
	}
	pc, err := sess.peer(owner)
	if err != nil {
		fail(err)
		return
	}
	peerID, err := pc.Forward(env, stream, func(resp netproto.Response) {
		resp.ID = clientID
		if stream && terminalResponse(resp) {
			sess.dropRoute(clientID)
		}
		// Enqueued, not flushed: the peer's read loop flushes the
		// session once its response batch is drained (onBatch).
		sess.Reply(resp)
	})
	if err != nil {
		fail(err)
		return
	}
	if stream {
		sess.addRoute(clientID, peerRoute{pc: pc, peerID: peerID})
	}
}

// fanResult is one member's answer to a fan-out call.
type fanResult struct {
	addr string
	resp netproto.Response
	err  error
}

// fanout round-trips op against every ring member concurrently.
func (r *Router) fanout(sess *rsession, op string, body any) []fanResult {
	members := r.ring.Members()
	results := make([]fanResult, len(members))
	var wg sync.WaitGroup
	for i, addr := range members {
		results[i].addr = addr
		pc, err := sess.peer(addr)
		if err != nil {
			results[i].err = err
			continue
		}
		wg.Add(1)
		go func(i int, pc *PeerConn) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), r.CallTimeout)
			defer cancel()
			results[i].resp, results[i].err = pc.Call(ctx, op, body)
		}(i, pc)
	}
	wg.Wait()
	return results
}

// fanFail reduces an all-failed fan-out to one client response,
// preferring an application error a daemon actually returned over
// transport errors.
func fanFail(sess *rsession, id uint64, results []fanResult) {
	for _, res := range results {
		if res.err == nil && res.resp.Code != "" {
			resp := res.resp
			resp.ID = id
			sess.Reply(resp)
			return
		}
	}
	msgs := make([]string, 0, len(results))
	for _, res := range results {
		if res.err != nil {
			msgs = append(msgs, res.err.Error())
		}
	}
	sess.Reply(netproto.Response{ID: id, Code: netproto.CodeBusy,
		Err: "no federation peer reachable: " + joinMsgs(msgs)})
}

func joinMsgs(msgs []string) string {
	if len(msgs) == 0 {
		return "no members"
	}
	out := msgs[0]
	for _, m := range msgs[1:] {
		out += "; " + m
	}
	return out
}

// fanContexts merges every member's context list (sorted union).
func (r *Router) fanContexts(sess *rsession, id uint64) {
	results := r.fanout(sess, netproto.OpContexts, nil)
	seen := map[string]bool{}
	anyOK := false
	for _, res := range results {
		if res.err != nil || !res.resp.OK {
			continue
		}
		anyOK = true
		for _, n := range res.resp.Names {
			seen[n] = true
		}
	}
	if !anyOK {
		fanFail(sess, id, results)
		return
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	sess.Reply(netproto.Response{ID: id, OK: true, Names: names})
}

// fanSchedGet answers with the first reachable member's scheduler
// config (members are normally configured identically).
func (r *Router) fanSchedGet(sess *rsession, id uint64) {
	results := r.fanout(sess, netproto.OpSchedGet, nil)
	for _, res := range results {
		if res.err == nil && res.resp.OK && res.resp.Sched != nil {
			resp := res.resp
			resp.ID = id
			sess.Reply(resp)
			return
		}
	}
	fanFail(sess, id, results)
}

// fanSchedSet applies a scheduler reconfiguration on every member.
// The fan-out is not atomic across daemons: a member failing mid-way
// leaves the others reconfigured (the error response says which).
func (r *Router) fanSchedSet(sess *rsession, id uint64, env netproto.Envelope) {
	var body netproto.SchedSetBody
	if err := env.Decode(&body); err != nil {
		sess.Reply(netproto.Response{ID: id, Code: netproto.CodeBadRequest, Err: err.Error()})
		return
	}
	results := r.fanout(sess, netproto.OpSchedSet, body)
	var ok *netproto.Response
	for i, res := range results {
		if res.err != nil {
			sess.Reply(netproto.Response{ID: id, Code: netproto.CodeBusy,
				Err: fmt.Sprintf("sched-set incomplete: member %s unreachable: %v", res.addr, res.err)})
			return
		}
		if res.resp.Code != "" {
			resp := res.resp
			resp.ID = id
			resp.Err = fmt.Sprintf("sched-set incomplete: member %s: %s", res.addr, resp.Err)
			sess.Reply(resp)
			return
		}
		ok = &results[i].resp
	}
	if ok == nil {
		sess.Reply(netproto.Response{ID: id, Code: netproto.CodeBusy, Err: "no federation members configured"})
		return
	}
	resp := *ok
	resp.ID = id
	sess.Reply(resp)
}

// fanQuarantineReset clears the quarantine ledger on every member and
// sums the released-interval counts.
func (r *Router) fanQuarantineReset(sess *rsession, id uint64) {
	results := r.fanout(sess, netproto.OpQuarantineReset, netproto.CtxBody{})
	total := 0
	anyOK := false
	for _, res := range results {
		if res.err == nil && res.resp.OK {
			anyOK = true
			total += res.resp.Count
		}
	}
	if !anyOK {
		fanFail(sess, id, results)
		return
	}
	sess.Reply(netproto.Response{ID: id, OK: true, Count: total})
}

// fanStats merges per-context stats across the members that know the
// context: counters sum, the drain flag ORs, per-op latency entries
// merge (counts sum, percentiles take the worst member). Only members
// answering no_such_context are ignored — the context's shards plus
// the daemon-global scheduler counters of every hosting member add up.
func (r *Router) fanStats(sess *rsession, id uint64, ctxName string) {
	results := r.fanout(sess, netproto.OpStats, netproto.CtxBody{Context: ctxName})
	var merged *netproto.Stats
	for _, res := range results {
		if res.err != nil || !res.resp.OK || res.resp.Stats == nil {
			continue
		}
		if merged == nil {
			cp := *res.resp.Stats
			merged = &cp
			continue
		}
		mergeStats(merged, res.resp.Stats)
	}
	if merged == nil {
		fanFail(sess, id, results)
		return
	}
	sess.Reply(netproto.Response{ID: id, OK: true, Stats: merged})
}

// mergeStats accumulates src into dst. The fieldsync analyzer holds it
// to Stats's full field list: a counter added to the wire struct but
// not merged here would silently vanish from federated stat fan-ins.
//
//simfs:sync netproto.Stats
func mergeStats(dst, src *netproto.Stats) {
	dst.Opens += src.Opens
	dst.Hits += src.Hits
	dst.Misses += src.Misses
	dst.Restarts += src.Restarts
	dst.DemandRestarts += src.DemandRestarts
	dst.PrefetchLaunches += src.PrefetchLaunches
	dst.DroppedPrefetch += src.DroppedPrefetch
	dst.StepsProduced += src.StepsProduced
	dst.Evictions += src.Evictions
	dst.Kills += src.Kills
	dst.Failures += src.Failures
	dst.PollutionResets += src.PollutionResets
	dst.Draining = dst.Draining || src.Draining
	if dst.CachePolicy == "" {
		dst.CachePolicy = src.CachePolicy
	}
	dst.LockAcquisitions += src.LockAcquisitions
	dst.LockContended += src.LockContended
	dst.LockWaitNs += src.LockWaitNs
	dst.SchedQueueDepth += src.SchedQueueDepth
	dst.SchedCoalesced += src.SchedCoalesced
	dst.SchedDropped += src.SchedDropped
	dst.SchedCanceled += src.SchedCanceled
	dst.SchedDemandWaitNs += src.SchedDemandWaitNs
	dst.SchedGuidedWaitNs += src.SchedGuidedWaitNs
	dst.SchedAgentWaitNs += src.SchedAgentWaitNs
	dst.SchedPreempted += src.SchedPreempted
	dst.SchedPromoted += src.SchedPromoted
	dst.SchedQuotaRounds += src.SchedQuotaRounds
	dst.SchedQuotaDeferred += src.SchedQuotaDeferred
	dst.SchedRetries += src.SchedRetries
	dst.SchedQuarantined += src.SchedQuarantined
	if len(src.SchedClientLoads) > 0 {
		if dst.SchedClientLoads == nil {
			dst.SchedClientLoads = make(map[string]uint64, len(src.SchedClientLoads))
		}
		for client, steps := range src.SchedClientLoads {
			dst.SchedClientLoads[client] += steps
		}
	}
	dst.Ops = mergeOpLatencies(dst.Ops, src.Ops)
}

// mergeOpLatencies merges per-op summaries by name: counts sum and the
// percentiles take the slowest member (the bound an operator cares
// about), sorted by op for a deterministic wire order.
func mergeOpLatencies(a, b []netproto.OpLatency) []netproto.OpLatency {
	if len(a) == 0 {
		return b
	}
	byOp := make(map[string]netproto.OpLatency, len(a)+len(b))
	for _, l := range a {
		byOp[l.Op] = l
	}
	for _, l := range b {
		if have, ok := byOp[l.Op]; ok {
			have.Count += l.Count
			if l.P50Ns > have.P50Ns {
				have.P50Ns = l.P50Ns
			}
			if l.P99Ns > have.P99Ns {
				have.P99Ns = l.P99Ns
			}
			byOp[l.Op] = have
		} else {
			byOp[l.Op] = l
		}
	}
	out := make([]netproto.OpLatency, 0, len(byOp))
	for _, l := range byOp {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Op < out[j].Op })
	return out
}
