// Package dvlib is the client library of SimFS (paper Sec. III-C): it
// connects analysis applications and simulators to the DV daemon. It
// provides both the transparent mode — open/read/close calls that behave
// like ordinary file I/O but block on virtualized (missing) files until
// the DV re-simulates them — and the explicit SIMFS_* API
// (Init/Finalize/Acquire/Acquire_nb/Wait/Test/Waitsome/Testsome/Release/
// Bitrep) for virtualization-aware applications.
//
// Connections speak the versioned envelope protocol (internal/netproto):
// Dial performs the hello handshake — version and capability
// negotiation — and fails with a CodeVersion *Error against daemons that
// predate it. Against a protocol-3 daemon the connection negotiates the
// binary fast-path codec by default (WithJSONCodec opts out); against
// older daemons it stays on JSON. Failures surface as *Error values
// carrying the daemon's structured error code, so callers dispatch on
// ErrCodeOf(err) instead of matching message text. Cancellation and
// deadlines plumb through context.Context: DialContext, AcquireCtx and
// Req.WaitCtx honor the context, and a canceled acquire releases its
// references so the daemon may dismantle re-simulations nobody else is
// waiting for.
//
// Requests coalesce into batches: every call's frame lands in a write
// buffer and is flushed — one syscall for however many frames queued —
// when the caller blocks for a response (or by an explicit Flush). The
// pipelined variants (Context.OpenAsync / Context.ReleaseAsync) expose
// this: issue a window of calls, then Wait on the handles; the daemon
// answers a connection's frames in order.
//
// The Admin client (Client.Admin) exposes the daemon's control plane:
// live scheduler reconfiguration, cache-policy swaps, context
// registration/deregistration and per-context drain/resume.
package dvlib

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"simfs/internal/netproto"
	"simfs/internal/vfs"
)

// ErrReconnecting reports that the connection was reset while a
// non-idempotent operation (release, acquire, admin) was in flight. The
// client has reconnected (or is reconnecting) and resynced its reference
// state with the daemon, but it cannot know whether the operation took
// effect before the reset — the caller must decide whether to retry.
// Idempotent operations (open, wait, est-wait, ping and the read-only
// queries) never fail with this: they are replayed transparently.
var ErrReconnecting = errors.New("connection reset while the request was in flight; state resynced — retry if still wanted")

// ErrNotHeld reports a release of a file the client-side reference
// ledger does not hold. With auto-reconnect enabled the ledger is
// authoritative: after a reconnect the daemon's references are rebuilt
// from it, so a double release would otherwise silently corrupt the
// recovered state.
var ErrNotHeld = errors.New("file is not held by this client (double release?)")

// Error is a structured daemon-reported failure: the machine-readable
// code, the operation that failed, and the human-readable message.
type Error struct {
	Code netproto.ErrCode
	Op   string
	Msg  string
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("dvlib: %s: %s (%s)", e.Op, e.Msg, e.Code)
	}
	return fmt.Sprintf("dvlib: %s: %s", e.Op, e.Msg)
}

// ErrCodeOf extracts the structured code from an error chain ("" when
// the error did not come from the daemon).
func ErrCodeOf(err error) netproto.ErrCode {
	var de *Error
	if errors.As(err, &de) {
		return de.Code
	}
	return ""
}

// frameBufSize sizes the connection's read buffer; flushThreshold bounds
// how many queued request bytes accumulate before an automatic flush.
const (
	frameBufSize   = 32 << 10
	flushThreshold = 32 << 10
)

// Client is a connection to the DV daemon. It is safe for concurrent use.
type Client struct {
	name string
	addr string

	// conn/br/codec are swapped atomically on reconnect: readers of the
	// stream run only on the readLoop goroutine (which performs the swap
	// itself), writers encode under wmu (held across the swap).
	conn    net.Conn
	br      *bufio.Reader
	codec   netproto.Codec
	version int
	caps    []string
	dialCfg dialConfig

	wmu  sync.Mutex   // serializes frame encoding and writes
	wbuf bytes.Buffer // queued request frames awaiting a flush

	mu      sync.Mutex
	recCond *sync.Cond // signals the end of a reconnect (guards reconnecting)
	nextID  uint64
	pending map[uint64]*pendingCall
	subs    map[uint64]func(netproto.Response) // multi-frame subscriptions
	// watches maps subscription IDs to their Watch handles, so a
	// reconnect can re-subscribe them (unlike acquires, watches hold no
	// references and are safe to re-issue).
	watches map[uint64]*Watch
	// held is the client-side reference ledger (context → file → count).
	// After a reconnect the daemon has released everything this session
	// held (disconnect cleanup), so the ledger is replayed as opens to
	// rebuild the reference state — and consulted to refuse releases of
	// files not held.
	held         map[string]map[string]int
	reconnecting bool
	closed       bool
	readErr      error
}

// dialConfig collects DialOption settings.
type dialConfig struct {
	jsonOnly  bool
	reconnect *ReconnectConfig
}

// DialOption customizes Dial/DialContext behavior.
type DialOption func(*dialConfig)

// WithJSONCodec disables binary-codec negotiation: the connection speaks
// JSON frames even against a daemon that offers the fast path. Useful
// for debugging with packet captures and for benchmark baselines.
func WithJSONCodec() DialOption {
	return func(cfg *dialConfig) { cfg.jsonOnly = true }
}

// ReconnectConfig tunes WithReconnect's backoff loop. The zero value
// gets sensible defaults (50ms base doubling to 2s, ±20% jitter, give
// up after 30s).
type ReconnectConfig struct {
	BaseBackoff time.Duration // delay before the second attempt (first is immediate)
	MaxBackoff  time.Duration // cap on the doubled delay
	Jitter      float64       // ±fraction applied to each delay
	MaxElapsed  time.Duration // total budget before the client gives up for good
	Seed        int64         // roots the jitter rng (pinned in chaos tests)
}

func (cfg ReconnectConfig) withDefaults() ReconnectConfig {
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.MaxElapsed <= 0 {
		cfg.MaxElapsed = 30 * time.Second
	}
	return cfg
}

// WithReconnect makes the client survive connection loss: when the read
// loop hits a broken stream, the client redials with exponential backoff,
// re-runs the hello handshake (same codec negotiation), re-opens every
// file in its reference ledger, re-subscribes active watches, and
// transparently replays idempotent in-flight calls (open, wait, est-wait,
// ping, the read-only queries). Non-idempotent in-flight calls (release,
// acquire, admin ops) fail with ErrReconnecting instead — the client
// cannot know whether they took effect — and releases are checked against
// the ledger so a double release is refused rather than corrupting the
// resynced state.
func WithReconnect(cfg ReconnectConfig) DialOption {
	c := cfg.withDefaults()
	return func(d *dialConfig) { d.reconnect = &c }
}

// Dial connects to the daemon at addr under the given client name (the DV
// uses it to associate prefetch agents and reference counts).
func Dial(addr, clientName string, opts ...DialOption) (*Client, error) {
	return DialContext(context.Background(), addr, clientName, opts...)
}

// DialContext is Dial honoring a context for both the TCP connect and
// the protocol handshake.
func DialContext(ctx context.Context, addr, clientName string, opts ...DialOption) (*Client, error) {
	var cfg dialConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dvlib: %w", err)
	}
	c := &Client{
		name:    clientName,
		addr:    addr,
		conn:    conn,
		br:      bufio.NewReaderSize(conn, frameBufSize),
		codec:   netproto.JSON,
		dialCfg: cfg,
		pending: map[uint64]*pendingCall{},
		subs:    map[uint64]func(netproto.Response){},
		watches: map[uint64]*Watch{},
		held:    map[string]map[string]int{},
	}
	c.recCond = sync.NewCond(&c.mu)
	// The handshake runs synchronously — no read loop yet — so the codec
	// can switch after the hello without racing a concurrent reader.
	stop := closeOnCancel(ctx, conn)
	info, codec, err := helloOn(conn, c.br, 1, c.name, cfg)
	canceled := stop()
	if err != nil || canceled {
		conn.Close()
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var de *Error
		if errors.As(err, &de) {
			return nil, err
		}
		return nil, fmt.Errorf("dvlib: handshake: %w", err)
	}
	c.applyHello(info, codec)
	c.nextID = 1 // the hello consumed ID 1
	go c.readLoop()
	return c, nil
}

// closeOnCancel makes ctx cancellation interrupt blocking conn I/O by
// closing the connection — the pre-handshake connection carries no state
// worth preserving, so a hard teardown is the honest cancellation. The
// returned stop func ends the watch and reports whether it fired.
func closeOnCancel(ctx context.Context, conn net.Conn) (stop func() bool) {
	if ctx.Done() == nil {
		return func() bool { return false }
	}
	done := make(chan struct{})
	fired := make(chan bool, 1)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
			fired <- true
		case <-done:
			fired <- false
		}
	}()
	return func() bool {
		close(done)
		return <-fired
	}
}

// helloOn performs the hello exchange on a bare connection — the initial
// dial and every reconnect share it. It never touches the Client, so a
// reconnect can negotiate on a candidate connection before swapping it
// in.
func helloOn(conn net.Conn, br *bufio.Reader, id uint64, name string, cfg dialConfig) (*netproto.HelloInfo, netproto.Codec, error) {
	caps := []string{netproto.CapAdmin, netproto.CapWatch}
	if !cfg.jsonOnly {
		caps = append(caps, netproto.CapBinary)
	}
	resp, codec, err := netproto.ClientHello(conn, br, id, name, caps)
	if err != nil {
		return nil, nil, err
	}
	if resp.Err != "" {
		if resp.Code == "" {
			// The daemon answered the hello with a v1-style untyped
			// error: it predates the versioned protocol.
			return nil, nil, &Error{Code: netproto.CodeVersion, Op: netproto.OpHello,
				Msg: fmt.Sprintf("daemon does not speak the versioned protocol (client speaks %d): %s",
					netproto.ProtoVersion, resp.Err)}
		}
		return nil, nil, &Error{Code: resp.Code, Op: netproto.OpHello, Msg: resp.Err}
	}
	if resp.Proto == nil || resp.Proto.Version < netproto.MinProtoVersion {
		return nil, nil, &Error{Code: netproto.CodeVersion, Op: netproto.OpHello,
			Msg: "daemon sent no usable protocol version"}
	}
	return resp.Proto, codec, nil
}

// applyHello installs a negotiated hello's outcome on the client.
func (c *Client) applyHello(info *netproto.HelloInfo, codec netproto.Codec) {
	c.version = info.Version
	c.caps = info.Caps
	c.codec = codec
}

// UsesBinary reports whether the connection negotiated the binary
// fast-path codec in the hello handshake.
func (c *Client) UsesBinary() bool { return c.codec == netproto.Binary }

// CodecName returns the name of the negotiated frame codec.
func (c *Client) CodecName() string { return c.codec.Name() }

// ProtoVersion returns the protocol version negotiated in the handshake.
func (c *Client) ProtoVersion() int { return c.version }

// Capabilities returns the capability flags the daemon advertised.
func (c *Client) Capabilities() []string { return append([]string(nil), c.caps...) }

// HasCapability reports whether the daemon advertised the capability in
// the hello handshake.
func (c *Client) HasCapability(cap string) bool { return slices.Contains(c.caps, cap) }

// Close tears down the connection. The daemon releases any references the
// client still holds.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.recCond.Broadcast()
	c.mu.Unlock()
	return c.conn.Close()
}

func (c *Client) readLoop() {
	for {
		var resp netproto.Response
		// Only this goroutine reads codec/br, and only it swaps them (in
		// tryReconnect), so the stream fields need no lock here.
		if err := c.codec.DecodeFrame(c.br, &resp); err != nil {
			if c.tryReconnect() {
				continue
			}
			c.die(err)
			return
		}
		c.route(resp)
	}
}

// route delivers one response frame to its pending call or subscription.
func (c *Client) route(resp netproto.Response) {
	c.mu.Lock()
	if p, ok := c.pending[resp.ID]; ok {
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		c.settle(p, resp)
		p.ch <- resp
		return
	}
	if fn, ok := c.subs[resp.ID]; ok {
		if resp.Done {
			delete(c.subs, resp.ID)
			delete(c.watches, resp.ID)
		}
		c.mu.Unlock()
		fn(resp)
		return
	}
	c.mu.Unlock()
}

// settle updates the reference ledger from a completed call: a
// successful open holds a reference, a successful release drops one.
func (c *Client) settle(p *pendingCall, resp netproto.Response) {
	if resp.Err != "" {
		return
	}
	switch p.op {
	case netproto.OpOpen:
		if b, ok := p.body.(netproto.FileBody); ok {
			c.trackHeld(b.Context, b.File, +1)
		}
	case netproto.OpRelease:
		if b, ok := p.body.(netproto.FileBody); ok {
			c.trackHeld(b.Context, b.File, -1)
		}
	}
}

// trackHeld adjusts the client-side reference ledger.
func (c *Client) trackHeld(ctxName, file string, delta int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.held[ctxName]
	if m == nil {
		if delta <= 0 {
			return
		}
		m = map[string]int{}
		c.held[ctxName] = m
	}
	m[file] += delta
	if m[file] <= 0 {
		delete(m, file)
	}
}

// heldCount reports the ledger's reference count for a file.
func (c *Client) heldCount(ctxName, file string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.held[ctxName][file]
}

// die is the terminal connection-loss path (no reconnect, or reconnect
// exhausted): every pending call and subscription fails.
func (c *Client) die(err error) {
	c.mu.Lock()
	c.readErr = err
	c.reconnecting = false
	for id, p := range c.pending {
		delete(c.pending, id)
		close(p.ch)
	}
	for id, fn := range c.subs {
		delete(c.subs, id)
		go fn(netproto.Response{ID: id, Err: "connection lost", Done: true})
	}
	c.watches = map[uint64]*Watch{}
	c.recCond.Broadcast()
	c.mu.Unlock()
}

// pendingCall is an in-flight request: its frame is queued (and possibly
// already flushed) and the read loop will route the response to ch. op
// and body are retained so a reconnect can replay the request; err is
// set (before ch closes) when the call fails locally with a typed error.
type pendingCall struct {
	op   string
	id   uint64
	body any
	ch   chan netproto.Response
	err  error
}

// call sends a request expecting exactly one response.
func (c *Client) call(op string, body any) (netproto.Response, error) {
	return c.callCtx(context.Background(), op, body)
}

// callCtx is call honoring a context deadline/cancellation. A canceled
// call abandons the response (the read loop drops it as unknown); the
// request may still have taken effect on the daemon.
func (c *Client) callCtx(ctx context.Context, op string, body any) (netproto.Response, error) {
	p, err := c.start(op, body, false)
	if err != nil {
		return netproto.Response{}, err
	}
	return c.await(ctx, p)
}

// startGate blocks while a reconnect is swapping the connection (new
// requests must not interleave with the replay) and reports the terminal
// error if the client is closed or dead. Caller must hold c.mu.
func (c *Client) startGateLocked() error {
	for c.reconnecting && !c.closed && c.readErr == nil {
		c.recCond.Wait()
	}
	if c.closed || c.readErr != nil {
		err := c.readErr
		if err == nil {
			err = errors.New("dvlib: client closed")
		}
		return err
	}
	return nil
}

// start registers a pending call and queues its request frame. When
// flush is true the frame (and anything queued before it) goes out
// immediately; otherwise it rides the write buffer until the caller
// awaits, Flush is called, or the buffer fills.
func (c *Client) start(op string, body any, flush bool) (*pendingCall, error) {
	ch := make(chan netproto.Response, 1)
	c.mu.Lock()
	if err := c.startGateLocked(); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.nextID++
	id := c.nextID
	p := &pendingCall{op: op, id: id, body: body, ch: ch}
	c.pending[id] = p
	c.mu.Unlock()

	env, err := netproto.NewEnvelope(id, op, body)
	if err == nil {
		if flush {
			err = c.write(env)
		} else {
			err = c.queue(env)
		}
	}
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, err
	}
	return p, nil
}

// await flushes any queued frames (the daemon cannot answer a request it
// has not received) and blocks for the call's response.
func (c *Client) await(ctx context.Context, p *pendingCall) (netproto.Response, error) {
	if err := c.Flush(); err != nil {
		c.mu.Lock()
		delete(c.pending, p.id)
		c.mu.Unlock()
		return netproto.Response{}, err
	}
	select {
	case resp, ok := <-p.ch:
		if !ok {
			if p.err != nil {
				return netproto.Response{}, p.err
			}
			return netproto.Response{}, errors.New("dvlib: connection lost")
		}
		if resp.Err != "" {
			return resp, &Error{Code: resp.Code, Op: p.op, Msg: resp.Err}
		}
		return resp, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, p.id)
		c.mu.Unlock()
		return netproto.Response{}, ctx.Err()
	}
}

// post sends a request without waiting for its response: no pending
// entry is registered, so the read loop drops the answer as unknown.
// Used on cancellation paths, where blocking on an unresponsive daemon
// would defeat the deadline being enforced.
func (c *Client) post(op string, body any) error {
	c.mu.Lock()
	if err := c.startGateLocked(); err != nil {
		c.mu.Unlock()
		return err
	}
	c.nextID++
	id := c.nextID
	c.mu.Unlock()
	env, err := netproto.NewEnvelope(id, op, body)
	if err != nil {
		return err
	}
	return c.write(env)
}

// subscribe sends a request whose responses stream to fn until a Done
// frame arrives. It returns the request ID, which names the subscription
// in an unsubscribe.
func (c *Client) subscribe(op string, body any, fn func(netproto.Response)) (uint64, error) {
	c.mu.Lock()
	if err := c.startGateLocked(); err != nil {
		c.mu.Unlock()
		return 0, err
	}
	c.nextID++
	id := c.nextID
	c.subs[id] = fn
	c.mu.Unlock()
	env, err := netproto.NewEnvelope(id, op, body)
	if err == nil {
		err = c.write(env)
	}
	if err != nil {
		c.mu.Lock()
		delete(c.subs, id)
		c.mu.Unlock()
		return 0, err
	}
	return id, nil
}

// reconnectEnabled reports whether the client was dialed WithReconnect.
func (c *Client) reconnectEnabled() bool { return c.dialCfg.reconnect != nil }

// cancelSub removes a local subscription and, if it was still live,
// delivers a synthetic Done frame to its handler. The map removal is the
// exclusion point: whoever removes the entry delivers the Done.
func (c *Client) cancelSub(id uint64, reason string) {
	c.mu.Lock()
	fn, ok := c.subs[id]
	if ok {
		delete(c.subs, id)
	}
	delete(c.watches, id)
	c.mu.Unlock()
	if ok {
		fn(netproto.Response{ID: id, Err: reason, Done: true})
	}
}

// queue encodes env into the write buffer without sending it, so several
// small requests coalesce into one conn.Write. The buffer auto-flushes
// past flushThreshold to bound memory and keep the daemon busy.
func (c *Client) queue(env netproto.Envelope) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.codec.EncodeFrame(&c.wbuf, env); err != nil {
		return err
	}
	if c.wbuf.Len() >= flushThreshold {
		return c.flushLocked()
	}
	return nil
}

// write queues env and flushes immediately (used for fire-and-forget
// frames where nothing will await — and therefore flush — later).
func (c *Client) write(env netproto.Envelope) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.codec.EncodeFrame(&c.wbuf, env); err != nil {
		return err
	}
	return c.flushLocked()
}

// Flush sends all queued request frames in a single write. Callers only
// need it when pipelining requests whose responses nothing is awaiting
// yet; the blocking APIs flush implicitly.
func (c *Client) Flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.flushLocked()
}

func (c *Client) flushLocked() error {
	if c.wbuf.Len() == 0 {
		return nil
	}
	_, err := c.conn.Write(c.wbuf.Bytes())
	c.wbuf.Reset()
	if err != nil && c.reconnectEnabled() {
		// A write failure is survivable: pending calls are replayed from
		// their retained bodies once the connection is back, and posts are
		// fire-and-forget by contract. Close the connection so the read
		// loop notices and reconnects, and report success to the caller.
		c.conn.Close()
		return nil
	}
	return err
}

// Contexts lists the simulation contexts the daemon serves.
func (c *Client) Contexts() ([]string, error) {
	resp, err := c.call(netproto.OpContexts, nil)
	if err != nil {
		return nil, err
	}
	return resp.Names, nil
}

// pingTimeout bounds Ping: a liveness probe that blocks forever answers
// the question the wrong way.
const pingTimeout = 5 * time.Second

// Ping checks daemon liveness. Unlike the data-plane calls it carries an
// explicit deadline: it reports an unresponsive daemon within
// pingTimeout instead of blocking until the connection dies.
func (c *Client) Ping() error {
	ctx, cancel := context.WithTimeout(context.Background(), pingTimeout)
	defer cancel()
	_, err := c.callCtx(ctx, netproto.OpPing, nil)
	return err
}

// Context is an open simulation context (SIMFS_Init's handle).
type Context struct {
	c    *Client
	name string
	info netproto.ContextInfo
	area *vfs.Disk // nil if the storage area is not locally reachable
}

// Init opens a simulation context (SIMFS_Init). If the context's storage
// area is reachable as a local directory, transparent reads serve file
// contents from it.
func (c *Client) Init(contextName string) (*Context, error) {
	resp, err := c.call(netproto.OpContextInfo, netproto.CtxBody{Context: contextName})
	if err != nil {
		return nil, err
	}
	if resp.Info == nil {
		return nil, &Error{Op: netproto.OpContextInfo, Msg: "daemon sent no context info"}
	}
	ctx := &Context{c: c, name: contextName, info: *resp.Info}
	if resp.Info.StorageDir != "" {
		if area, err := vfs.NewDisk(resp.Info.StorageDir); err == nil {
			ctx.area = area
		}
	}
	return ctx, nil
}

// Finalize closes the context handle (SIMFS_Finalize). It is a no-op on
// the wire: references are dropped per file via Release/Close.
func (ctx *Context) Finalize() error { return nil }

// Name returns the context name.
func (ctx *Context) Name() string { return ctx.name }

// Info returns the context parameters the daemon advertised.
func (ctx *Context) Info() netproto.ContextInfo { return ctx.info }

// Filename returns the output step file name for a 1-based step index,
// following the context's naming convention.
func (ctx *Context) Filename(step int) string {
	return fmt.Sprintf("%s%08d%s", ctx.info.FilePrefix, step, ctx.info.FileSuffix)
}

// OpenResult reports an Open outcome.
type OpenResult struct {
	Available bool
	EstWait   time.Duration
}

// Open is the transparent-mode open: non-blocking, it registers the access
// with the DV (starting a re-simulation if the file is missing) and takes
// a reference on the file.
func (ctx *Context) Open(file string) (OpenResult, error) {
	resp, err := ctx.c.call(netproto.OpOpen, netproto.FileBody{Context: ctx.name, File: file})
	if err != nil {
		return OpenResult{}, err
	}
	return OpenResult{Available: resp.Available, EstWait: time.Duration(resp.EstWaitNs)}, nil
}

// OpenCall is a pipelined Open in flight: the request frame is queued on
// the connection; Wait flushes and blocks for the daemon's answer.
type OpenCall struct {
	c *Client
	p *pendingCall
}

// OpenAsync queues an Open without waiting for the response, enabling
// request pipelining: issue a window of OpenAsync/ReleaseAsync calls,
// then Wait on the handles. All queued frames go out in one write on
// the first Wait (or an explicit Client.Flush).
func (ctx *Context) OpenAsync(file string) (*OpenCall, error) {
	p, err := ctx.c.start(netproto.OpOpen, netproto.FileBody{Context: ctx.name, File: file}, false)
	if err != nil {
		return nil, err
	}
	return &OpenCall{c: ctx.c, p: p}, nil
}

// Wait flushes pending request frames and blocks for the open's result.
// It must be called exactly once.
func (oc *OpenCall) Wait() (OpenResult, error) {
	resp, err := oc.c.await(context.Background(), oc.p)
	if err != nil {
		return OpenResult{}, err
	}
	return OpenResult{Available: resp.Available, EstWait: time.Duration(resp.EstWaitNs)}, nil
}

// ReleaseCall is a pipelined Release in flight.
type ReleaseCall struct {
	c *Client
	p *pendingCall
}

// ReleaseAsync queues a Release without waiting for the response (the
// pipelined variant of Release/Close).
func (ctx *Context) ReleaseAsync(file string) (*ReleaseCall, error) {
	p, err := ctx.c.start(netproto.OpRelease, netproto.FileBody{Context: ctx.name, File: file}, false)
	if err != nil {
		return nil, err
	}
	return &ReleaseCall{c: ctx.c, p: p}, nil
}

// Wait flushes pending request frames and blocks for the release's
// acknowledgement. It must be called exactly once.
func (rc *ReleaseCall) Wait() error {
	_, err := rc.c.await(context.Background(), rc.p)
	return err
}

// WaitAvailable blocks until the file is on disk (the blocking part of a
// transparent-mode read). The file must have been opened first. It rides
// the daemon's notification hub via a file subscription (SIMFS_Wait).
func (ctx *Context) WaitAvailable(file string) error {
	w, err := ctx.Watch(file)
	if err != nil {
		return err
	}
	for ev := range w.Events() {
		if ev.Err != "" {
			return errors.New(ev.Err)
		}
		if ev.File == file && ev.Ready {
			return nil
		}
	}
	return errors.New("dvlib: watch ended before the file became available")
}

// WatchEvent is one notification from a file watch: a per-file
// resolution (File set, Ready or Err) or the final completion (Done).
type WatchEvent struct {
	File  string
	Ready bool
	Err   string
	Done  bool
}

// Watch is a notification-only subscription to file availability,
// served by the daemon's notify hub. Unlike Acquire it takes no
// references; the watched files must be resident or already promised by
// a re-simulation (e.g. after Open or Prefetch). With auto-reconnect,
// watches survive connection loss: the client re-subscribes the files
// not yet resolved, and per-file deduplication keeps a file that
// resolved just before the reset from being reported twice.
type Watch struct {
	ctx   *Context
	id    uint64
	files []string
	ch    chan WatchEvent

	mu     sync.Mutex
	seen   map[string]bool // files already reported (dedup across re-subscribes)
	closed bool
}

// Watch subscribes to the given files. Events arrive on Events(): one
// per file as it becomes ready (or fails), then a final Done event, after
// which the channel closes. A file that is neither on disk nor being
// produced resolves immediately with a per-file error event.
func (ctx *Context) Watch(files ...string) (*Watch, error) {
	if len(files) == 0 {
		return nil, errors.New("dvlib: watch of zero files")
	}
	// One slot per file plus the Done event: the daemon resolves each
	// file at most once (re-deliveries after a reconnect are deduped), so
	// delivery below never blocks the read loop.
	w := &Watch{
		ctx:   ctx,
		files: append([]string(nil), files...),
		ch:    make(chan WatchEvent, len(files)+1),
		seen:  map[string]bool{},
	}
	id, err := ctx.c.subscribe(netproto.OpSubscribe,
		netproto.FilesBody{Context: ctx.name, Files: append([]string(nil), files...)},
		w.deliver)
	if err != nil {
		return nil, err
	}
	w.id = id
	ctx.c.mu.Lock()
	// The Done frame may already have raced in and removed the sub; a
	// completed watch must not linger in the re-subscribe registry.
	if _, live := ctx.c.subs[id]; live {
		ctx.c.watches[id] = w
	}
	ctx.c.mu.Unlock()
	return w, nil
}

// Events returns the watch's event stream.
func (w *Watch) Events() <-chan WatchEvent { return w.ch }

// Cancel tears down the watch: the daemon drops the subscription and the
// event channel closes after a final Done event. Canceling a completed
// watch is a no-op.
func (w *Watch) Cancel() error {
	w.ctx.c.cancelSub(w.id, "unsubscribed")
	_, err := w.ctx.c.call(netproto.OpUnsubscribe, netproto.UnsubscribeBody{SubID: w.id})
	return err
}

// remaining returns the files the watch has not yet reported — what a
// reconnect re-subscribes.
func (w *Watch) remaining() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []string
	for _, f := range w.files {
		if !w.seen[f] {
			out = append(out, f)
		}
	}
	return out
}

// deliver translates wire frames into watch events. It serializes with
// itself (read loop vs. cancel) and never sends after close. Per-file
// frames are deduplicated: after a reconnect the re-subscription reports
// already-resident files again.
func (w *Watch) deliver(resp netproto.Response) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return
	}
	if resp.File != "" && !w.seen[resp.File] {
		w.seen[resp.File] = true
		w.ch <- WatchEvent{File: resp.File, Ready: resp.Ready, Err: resp.Err}
	}
	if resp.Done {
		w.closed = true
		if resp.Err != "" && resp.File == "" {
			w.ch <- WatchEvent{Err: resp.Err, Done: true}
		} else {
			w.ch <- WatchEvent{Done: true}
		}
		close(w.ch)
	}
}

// Read is the transparent-mode read: it blocks until the file is available
// and returns its content from the storage area. Open must precede it.
func (ctx *Context) Read(file string) ([]byte, error) {
	if err := ctx.WaitAvailable(file); err != nil {
		return nil, err
	}
	if ctx.area == nil {
		return nil, fmt.Errorf("dvlib: storage area of context %q is not locally reachable", ctx.name)
	}
	return ctx.area.Read(file)
}

// Close is the transparent-mode close: it drops the file reference so the
// DV may evict it (SIMFS_Release shares the implementation). With
// auto-reconnect enabled the client-side ledger is consulted first: a
// release of a file not held fails with ErrNotHeld instead of reaching
// the daemon, because after a reconnect the daemon's reference state is
// rebuilt from that ledger and a double release would corrupt it.
func (ctx *Context) Close(file string) error {
	if ctx.c.reconnectEnabled() && ctx.c.heldCount(ctx.name, file) == 0 {
		return fmt.Errorf("dvlib: %s %q: %w", netproto.OpRelease, file, ErrNotHeld)
	}
	_, err := ctx.c.call(netproto.OpRelease, netproto.FileBody{Context: ctx.name, File: file})
	return err
}

// Release drops a file reference (SIMFS_Release).
func (ctx *Context) Release(file string) error { return ctx.Close(file) }

// EstWait asks the DV for the estimated availability delay of a file.
func (ctx *Context) EstWait(file string) (time.Duration, error) {
	resp, err := ctx.c.call(netproto.OpEstWait, netproto.FileBody{Context: ctx.name, File: file})
	if err != nil {
		return 0, err
	}
	return time.Duration(resp.EstWaitNs), nil
}

// Bitrep checks whether a file's current content matches the originally
// produced one (SIMFS_Bitrep). flag is true for a bitwise match.
func (ctx *Context) Bitrep(file string) (bool, error) {
	resp, err := ctx.c.call(netproto.OpBitrep, netproto.FileBody{Context: ctx.name, File: file})
	if err != nil {
		return false, err
	}
	return resp.Flag, nil
}

// RegisterChecksum stores a file's original checksum (used by the
// checksum command-line utility at initial-simulation time).
func (ctx *Context) RegisterChecksum(file string, sum uint64) error {
	_, err := ctx.c.call(netproto.OpRegSum, netproto.ChecksumBody{Context: ctx.name, File: file, Sum: sum})
	return err
}

// Prefetch sends a guided-prefetching hint: the named files will be
// accessed soon, so SimFS should start re-simulating the missing ones
// now. It neither blocks nor takes references; it returns the number of
// re-simulations launched.
func (ctx *Context) Prefetch(files ...string) (int, error) {
	resp, err := ctx.c.call(netproto.OpPrefetch, netproto.FilesBody{Context: ctx.name, Files: files})
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}

// Stats fetches the context's DV counters.
func (ctx *Context) Stats() (netproto.Stats, error) {
	resp, err := ctx.c.call(netproto.OpStats, netproto.CtxBody{Context: ctx.name})
	if err != nil {
		return netproto.Stats{}, err
	}
	if resp.Stats == nil {
		return netproto.Stats{}, &Error{Op: netproto.OpStats, Msg: "daemon sent no stats"}
	}
	return *resp.Stats, nil
}

// Rescan asks the daemon to resynchronize the context's cache with its
// storage area (recovery utility).
func (ctx *Context) Rescan() (int, error) {
	resp, err := ctx.c.call(netproto.OpRescan, netproto.CtxBody{Context: ctx.name})
	if err != nil {
		return 0, err
	}
	return resp.Count, nil
}
