package netproto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
)

// ServerConn is the server half of one client connection, shared by the
// daemon and the federation router: the framed read loop with its hello
// gate, the hello negotiation, and a reply writer that coalesces the
// answers to a pipelined batch into one write.
type ServerConn struct {
	conn net.Conn
	// br buffers reads; the read loop peeks it (FrameBuffered) to answer
	// a whole pipelined batch before flushing once.
	br *bufio.Reader
	// codec frames the connection's traffic. It starts as JSON and may
	// switch to Binary right after the hello response is encoded; only
	// the read loop's goroutine reads it outside wmu.
	codec Codec
	// role names this end in handshake errors ("daemon", "router").
	role string
	logf func(format string, args ...any)

	wmu sync.Mutex
	// wbuf accumulates encoded response frames between flushes. Every
	// EncodeFrame appends a complete frame with a single Write, so the
	// buffer never holds a torn frame.
	wbuf bytes.Buffer

	// client is the name declared in the hello; version is the
	// negotiated protocol version (0 before the hello). Both are written
	// only by the read loop, before any dispatch that reads them.
	client  string
	version int
}

// NewServerConn wraps an accepted connection. role names this end in
// handshake errors; logf receives transport failures.
func NewServerConn(conn net.Conn, role string, logf func(format string, args ...any)) *ServerConn {
	return &ServerConn{conn: conn, br: bufio.NewReaderSize(conn, 32<<10), codec: JSON, role: role, logf: logf}
}

// Client returns the client name declared in the hello ("" before it).
func (c *ServerConn) Client() string { return c.client }

// RemoteAddr returns the peer's address.
func (c *ServerConn) RemoteAddr() net.Addr { return c.conn.RemoteAddr() }

// Close closes the connection; the read loop returns.
func (c *ServerConn) Close() error { return c.conn.Close() }

// Serve runs the read loop until the peer hangs up, the stream can no
// longer be trusted, or dispatch reports that the connection should
// close. A complete but undecodable frame is answered with CodeFrame and
// reading goes on; any first frame other than a hello is answered with
// CodeVersion and the connection closes. When no further complete frame
// is buffered, batchEnd (if set) runs and the queued replies are
// flushed, so a pipelined batch is answered with one write. Serve
// flushes and closes the connection before it returns.
func (c *ServerConn) Serve(dispatch func(Envelope) bool, batchEnd func()) {
	defer func() {
		// Replies queued by the final dispatch of a closing connection
		// (version rejections, failed hellos) must still reach the peer.
		c.Flush()
		c.conn.Close()
	}()
	for {
		var env Envelope
		if err := c.codec.DecodeFrame(c.br, &env); err != nil {
			var fe *FrameError
			if errors.As(err, &fe) && fe.Recoverable {
				// The stream is still aligned: answer instead of dropping
				// the connection.
				c.Send(Response{ID: fe.ID, Code: CodeFrame, Err: err.Error()})
				continue
			}
			if err != io.EOF {
				c.logf("%s: read from %s: %v", c.role, c.conn.RemoteAddr(), err)
			}
			return
		}
		if c.version == 0 && env.Op != OpHello {
			// No handshake: a pre-versioned (v1) client or a foreign peer.
			// Nothing else it sends can be interpreted safely.
			c.Send(Response{ID: env.ID, Code: CodeVersion,
				Err: fmt.Sprintf("protocol handshake required: first frame must be %q (%s speaks protocol %d)",
					OpHello, c.role, ProtoVersion)})
			return
		}
		if !dispatch(env) {
			return
		}
		// FrameBuffered insists on a complete frame, so a half-received
		// one cannot deadlock both sides.
		if !FrameBuffered(c.br) {
			if batchEnd != nil {
				batchEnd()
			}
			c.Flush()
		}
	}
}

// Hello answers a hello envelope with the negotiated version and caps,
// the capabilities this end offers. The connection switches to the
// binary codec when the version is at least 3 and both ends hold
// CapBinary. It reports whether the connection should stay open: a peer
// older than MinProtoVersion is refused and closed; a second hello is
// refused but the session goes on.
func (c *ServerConn) Hello(env Envelope, caps []string) bool {
	if c.version != 0 {
		// A second hello would rewrite the session's client identity
		// under running goroutines.
		c.Reply(Response{ID: env.ID, Code: CodeBadRequest,
			Err: "duplicate hello: the handshake already completed"})
		return true
	}
	var hb HelloBody
	if err := env.Decode(&hb); err != nil {
		c.Reply(Response{ID: env.ID, Code: CodeBadRequest, Err: err.Error()})
		return true
	}
	if hb.Version < MinProtoVersion {
		c.Reply(Response{ID: env.ID, Code: CodeVersion,
			Err: fmt.Sprintf("peer speaks protocol %d; %s requires %d..%d",
				hb.Version, c.role, MinProtoVersion, ProtoVersion)})
		return false
	}
	c.version = min(hb.Version, ProtoVersion)
	c.client = hb.Client
	c.Reply(Response{ID: env.ID, OK: true, Proto: &HelloInfo{Version: c.version, Caps: caps}})
	if c.version >= 3 && slices.Contains(caps, CapBinary) && slices.Contains(hb.Caps, CapBinary) {
		// The hello response is already JSON-encoded in the reply buffer,
		// so the swap cannot reframe it; everything after speaks binary.
		c.wmu.Lock()
		c.codec = Binary
		c.wmu.Unlock()
	}
	return true
}

// Reply encodes resp into the write buffer without flushing. The read
// loop flushes before its next blocking read.
func (c *ServerConn) Reply(resp Response) {
	c.wmu.Lock()
	c.enqueueLocked(resp)
	c.wmu.Unlock()
}

// Send encodes resp and flushes it at once: the path for pushes made off
// the read loop's goroutine, which nothing else would flush.
func (c *ServerConn) Send(resp Response) {
	c.wmu.Lock()
	if c.enqueueLocked(resp) {
		c.flushLocked()
	}
	c.wmu.Unlock()
}

// Flush writes the buffered response frames.
func (c *ServerConn) Flush() {
	c.wmu.Lock()
	c.flushLocked()
	c.wmu.Unlock()
}

func (c *ServerConn) enqueueLocked(resp Response) bool {
	if err := c.codec.EncodeFrame(&c.wbuf, resp); err != nil {
		// EncodeFrame fails before any byte lands in wbuf, so earlier
		// frames are intact.
		c.logf("%s: encode for %s: %v", c.role, c.conn.RemoteAddr(), err)
		c.conn.Close()
		return false
	}
	return true
}

func (c *ServerConn) flushLocked() {
	if c.wbuf.Len() == 0 {
		return
	}
	_, err := c.conn.Write(c.wbuf.Bytes())
	c.wbuf.Reset()
	if err != nil {
		c.logf("%s: write to %s: %v", c.role, c.conn.RemoteAddr(), err)
		c.conn.Close()
	}
}

// ClientHello runs the client half of the handshake on a fresh
// connection: it sends a JSON hello carrying ProtoVersion, the client
// name and the requested caps, reads the reply, and returns it with the
// codec the connection speaks from then on. That is Binary when the
// negotiated version is at least 3 and both ends hold CapBinary, JSON
// otherwise. A refused handshake is a reply, not an error: the caller
// judges resp.
func ClientHello(w io.Writer, r io.Reader, id uint64, name string, caps []string) (resp Response, codec Codec, err error) {
	hello, _ := NewEnvelope(id, OpHello, HelloBody{Version: ProtoVersion, Client: name, Caps: caps})
	if err := JSON.EncodeFrame(w, hello); err != nil {
		return Response{}, JSON, err
	}
	if err := JSON.DecodeFrame(r, &resp); err != nil {
		return Response{}, JSON, err
	}
	if p := resp.Proto; p != nil && p.Version >= 3 &&
		slices.Contains(p.Caps, CapBinary) && slices.Contains(caps, CapBinary) {
		return resp, Binary, nil
	}
	return resp, JSON, nil
}
