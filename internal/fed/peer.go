package fed

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"simfs/internal/netproto"
)

// dialTimeout bounds how long a peer dial (TCP connect + hello
// round-trip) may block the calling dispatch path.
const dialTimeout = 2 * time.Second

// peerCaps is what a federation link requests in its hello: everything
// a daemon can grant, binary included. The daemon's answer decides the
// codec; a DisableBinary peer simply keeps the link on JSON.
var peerCaps = []string{netproto.CapAdmin, netproto.CapWatch,
	netproto.CapPreempt, netproto.CapBinary, netproto.CapFed}

// PeerConn is one connection to a peer daemon, shared by the router
// (op forwarding) and the bridge (fed-watch subscriptions). Requests
// are encoded into a write buffer and flushed in one syscall; a read
// loop demuxes response frames back to their registered handlers by
// request ID. The binary codec and reply coalescing negotiated in the
// hello make this the same fast path a batching client uses.
//
// A PeerConn is single-use: once the connection dies, every pending
// handler receives a synthesized terminal draining response and the
// conn reports Broken. Owners drop broken conns and dial fresh ones —
// there is no in-place reconnect, so no frame can straddle two
// transport generations.
type PeerConn struct {
	addr string
	// onBatch, when set, runs after the read loop drains a batch of
	// response frames (the router flushes the client session there).
	onBatch func()

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*pendingFrame
	broken  bool

	wmu   sync.Mutex
	wbuf  bytes.Buffer
	codec netproto.Codec

	conn net.Conn
	caps []string
}

type pendingFrame struct {
	fn func(netproto.Response)
	// stream keeps the entry registered until a terminal frame arrives
	// (wait/acquire/subscribe/fed-watch deliver per-file frames first).
	stream bool
}

// terminalResponse reports whether resp ends its request's stream: the
// explicit Done frame, or an error frame that is not per-file (per-file
// failures carry File and the stream continues).
func terminalResponse(resp netproto.Response) bool {
	return resp.Done || (resp.Code != "" && resp.File == "")
}

// DialPeer connects to a peer daemon and completes the hello handshake
// as clientName. The link switches to the binary codec when the daemon
// grants it. onBatch may be nil.
func DialPeer(addr, clientName string, onBatch func()) (*PeerConn, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("fed: dial %s: %w", addr, err)
	}
	// The hello exchange is synchronous, before the read loop starts:
	// nothing else is in flight to demux.
	conn.SetDeadline(time.Now().Add(dialTimeout)) //simfs:allow wallclock I/O deadline on a real network dial
	br := bufio.NewReaderSize(conn, 32<<10)
	resp, codec, err := netproto.ClientHello(conn, br, 1, clientName, peerCaps)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("fed: hello with %s: %w", addr, err)
	}
	conn.SetDeadline(time.Time{})
	if !resp.OK || resp.Proto == nil {
		conn.Close()
		return nil, fmt.Errorf("fed: peer %s refused handshake: %s (%s)", addr, resp.Err, resp.Code)
	}
	pc := &PeerConn{addr: addr, onBatch: onBatch, conn: conn, codec: codec,
		caps: resp.Proto.Caps, nextID: 1, pending: map[uint64]*pendingFrame{}}
	go pc.readLoop(br)
	return pc, nil
}

// Addr returns the peer's dialed address.
func (pc *PeerConn) Addr() string { return pc.addr }

// Broken reports whether the connection has died. Pending handlers
// have already been failed; the owner should dial a replacement.
func (pc *PeerConn) Broken() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.broken
}

// Close tears the connection down, failing all pending handlers.
func (pc *PeerConn) Close() { pc.fail(errors.New("connection closed")) }

func (pc *PeerConn) readLoop(br *bufio.Reader) {
	for {
		var resp netproto.Response
		if err := pc.codec.DecodeFrame(br, &resp); err != nil {
			var fe *netproto.FrameError
			if errors.As(err, &fe) && fe.Recoverable {
				// One complete but undecodable frame; the stream is still
				// aligned. Nothing to deliver — skip it.
				continue
			}
			pc.fail(err)
			return
		}
		pc.deliver(resp)
		if pc.onBatch != nil && !netproto.FrameBuffered(br) {
			pc.onBatch()
		}
	}
}

func (pc *PeerConn) deliver(resp netproto.Response) {
	pc.mu.Lock()
	e := pc.pending[resp.ID]
	if e != nil && (!e.stream || terminalResponse(resp)) {
		delete(pc.pending, resp.ID)
	}
	pc.mu.Unlock()
	if e != nil {
		e.fn(resp)
	}
}

// fail marks the conn broken and synthesizes a terminal draining
// response for every pending request, so proxied clients see the same
// structured error a gracefully shutting-down daemon would send.
func (pc *PeerConn) fail(cause error) {
	pc.mu.Lock()
	if pc.broken {
		pc.mu.Unlock()
		return
	}
	pc.broken = true
	entries := pc.pending
	pc.pending = map[uint64]*pendingFrame{}
	pc.mu.Unlock()
	pc.conn.Close()
	for id, e := range entries {
		e.fn(netproto.Response{ID: id, Code: netproto.CodeDraining,
			Err: fmt.Sprintf("federation peer %s lost: %v", pc.addr, cause), Done: true})
	}
}

// Forward registers fn under a fresh peer-side request ID, rewrites
// env's ID and encodes it into the write buffer (no flush). fn runs on
// the read-loop goroutine for every response frame of the request;
// stream keeps it registered until a terminal frame.
func (pc *PeerConn) Forward(env netproto.Envelope, stream bool, fn func(netproto.Response)) (uint64, error) {
	pc.mu.Lock()
	if pc.broken {
		pc.mu.Unlock()
		return 0, fmt.Errorf("fed: peer %s is down", pc.addr)
	}
	pc.nextID++
	id := pc.nextID
	pc.pending[id] = &pendingFrame{fn: fn, stream: stream}
	pc.mu.Unlock()

	env.ID = id
	if err := pc.enqueue(env); err != nil {
		pc.mu.Lock()
		delete(pc.pending, id)
		pc.mu.Unlock()
		return 0, err
	}
	return id, nil
}

// Post encodes a fire-and-forget request (no response handler — the
// peer's reply, if any, is dropped by the demux). Used for
// unsubscribe, whose reply carries nothing.
func (pc *PeerConn) Post(op string, body any) error {
	pc.mu.Lock()
	if pc.broken {
		pc.mu.Unlock()
		return fmt.Errorf("fed: peer %s is down", pc.addr)
	}
	pc.nextID++
	id := pc.nextID
	pc.mu.Unlock()
	return pc.enqueue(newEnv(id, op, body))
}

func (pc *PeerConn) enqueue(env netproto.Envelope) error {
	pc.wmu.Lock()
	defer pc.wmu.Unlock()
	if err := pc.codec.EncodeFrame(&pc.wbuf, env); err != nil {
		return fmt.Errorf("fed: encode for %s: %w", pc.addr, err)
	}
	return nil
}

// Flush writes every buffered request frame in one syscall.
func (pc *PeerConn) Flush() error {
	pc.wmu.Lock()
	if pc.wbuf.Len() == 0 {
		pc.wmu.Unlock()
		return nil
	}
	_, err := pc.conn.Write(pc.wbuf.Bytes())
	pc.wbuf.Reset()
	pc.wmu.Unlock()
	if err != nil {
		pc.fail(err)
		return fmt.Errorf("fed: write to %s: %w", pc.addr, err)
	}
	return nil
}

// Call round-trips one request synchronously (control-plane fan-outs).
// Transport failures surface as the error; application failures ride
// the response's Code.
func (pc *PeerConn) Call(ctx context.Context, op string, body any) (netproto.Response, error) {
	ch := make(chan netproto.Response, 1)
	if _, err := pc.Forward(newEnv(0, op, body), false, func(resp netproto.Response) {
		ch <- resp
	}); err != nil {
		return netproto.Response{}, err
	}
	if err := pc.Flush(); err != nil {
		return netproto.Response{}, err
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-ctx.Done():
		return netproto.Response{}, fmt.Errorf("fed: call %s on %s: %w", op, pc.addr, ctx.Err())
	}
}

// Subscribe issues a streaming request and flushes immediately; fn
// receives every response frame until a terminal one. The returned ID
// cancels the stream via an unsubscribe Post.
func (pc *PeerConn) Subscribe(op string, body any, fn func(netproto.Response)) (uint64, error) {
	id, err := pc.Forward(newEnv(0, op, body), true, fn)
	if err != nil {
		return 0, err
	}
	if err := pc.Flush(); err != nil {
		return 0, err
	}
	return id, nil
}

// newEnv builds a typed envelope; NewEnvelope's error return is
// documented always-nil.
func newEnv(id uint64, op string, body any) netproto.Envelope {
	env, _ := netproto.NewEnvelope(id, op, body)
	return env
}
