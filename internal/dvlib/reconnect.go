package dvlib

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"time"

	"simfs/internal/netproto"
)

// tryReconnect is the read loop's recovery path: redial with backoff,
// re-handshake, rebuild the reference state and replay what can be
// replayed. It reports whether the read loop should continue on the new
// connection. Runs only on the readLoop goroutine.
func (c *Client) tryReconnect() bool {
	c.mu.Lock()
	if c.closed || c.dialCfg.reconnect == nil || c.readErr != nil {
		c.mu.Unlock()
		return false
	}
	cfg := *c.dialCfg.reconnect
	c.reconnecting = true

	// Partition the in-flight calls: replayable ones (the hot data-plane
	// ops and the read-only queries; see netproto.OpSpec.Replay) ride
	// through, their frames replayed below. The rest — release, acquire,
	// unsubscribe, checksum registration and the admin control plane —
	// may have taken effect before the connection died, so they fail
	// with the typed error and the caller decides.
	var replay []*pendingCall
	for id, p := range c.pending {
		if netproto.Spec(p.op).Replay {
			replay = append(replay, p)
			continue
		}
		delete(c.pending, id)
		p.err = fmt.Errorf("dvlib: %s: %w", p.op, ErrReconnecting)
		close(p.ch)
	}
	sort.Slice(replay, func(i, j int) bool { return replay[i].id < replay[j].id })

	// Subscriptions that are not watches are acquires: they hold
	// references the daemon just released, so they fail typed instead of
	// being re-issued (re-acquiring could double work the caller already
	// observed). Watches hold nothing and are re-subscribed after the
	// handshake.
	var watches []*Watch
	for id, fn := range c.subs {
		if w, ok := c.watches[id]; ok {
			watches = append(watches, w)
			continue
		}
		delete(c.subs, id)
		go fn(netproto.Response{ID: id, Err: ErrReconnecting.Error(), Done: true})
	}

	held := make(map[string]map[string]int, len(c.held))
	for ctxName, files := range c.held {
		m := make(map[string]int, len(files))
		for f, n := range files {
			m[f] = n
		}
		held[ctxName] = m
	}
	c.mu.Unlock()

	c.conn.Close()
	if c.redial(cfg) {
		c.replay(held, watches, replay)
		c.endReconnect()
		return true
	}
	// Out of budget (or closed): the calls spared for replay die too.
	c.mu.Lock()
	for _, p := range replay {
		if _, ok := c.pending[p.id]; ok {
			delete(c.pending, p.id)
			close(p.ch)
		}
	}
	c.mu.Unlock()
	c.endReconnect()
	return false
}

// redial loops dial + hello with jittered exponential backoff until it
// succeeds, the budget runs out, or the client closes. On success the
// new connection is swapped in under both locks.
//
//simfs:allow wallclock reconnect backoff paces real network dials, not simulation
func (c *Client) redial(cfg ReconnectConfig) bool {
	rng := rand.New(rand.NewSource(cfg.Seed))
	start := time.Now()
	delay := cfg.BaseBackoff
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			d := delay
			if cfg.Jitter > 0 {
				d = time.Duration(float64(d) * (1 + cfg.Jitter*(2*rng.Float64()-1)))
			}
			time.Sleep(d)
			if delay *= 2; delay > cfg.MaxBackoff {
				delay = cfg.MaxBackoff
			}
		}
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed || time.Since(start) > cfg.MaxElapsed {
			return false
		}
		conn, err := net.DialTimeout("tcp", c.addr, 2*time.Second)
		if err != nil {
			continue
		}
		br := bufio.NewReaderSize(conn, frameBufSize)
		info, codec, err := helloOn(conn, br, c.newID(), c.name, c.dialCfg)
		if err != nil {
			conn.Close()
			continue
		}
		c.wmu.Lock()
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			c.wmu.Unlock()
			conn.Close()
			return false
		}
		c.conn, c.br = conn, br
		c.applyHello(info, codec)
		// Frames batched before the reset were encoded for the dead
		// connection; every surviving request is replayed from its body,
		// so the stale bytes would only duplicate them.
		c.wbuf.Reset()
		c.mu.Unlock()
		c.wmu.Unlock()
		return true
	}
}

// newID allocates a request ID. IDs stay monotonic across reconnects:
// in-flight calls keep theirs for replay, so resetting would collide.
func (c *Client) newID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID
}

// replay rebuilds daemon-side session state on the fresh connection, in
// dependency order: the reference ledger first (re-opening restarts the
// re-simulations waits depend on), then watch re-subscriptions, then the
// surviving in-flight calls in their original order. Everything lands in
// one coalesced write.
func (c *Client) replay(held map[string]map[string]int, watches []*Watch, replay []*pendingCall) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	enc := func(id uint64, op string, body any) {
		env, err := netproto.NewEnvelope(id, op, body)
		if err == nil {
			_ = c.codec.EncodeFrame(&c.wbuf, env)
		}
	}
	for ctxName, files := range held {
		for f, n := range files {
			for i := 0; i < n; i++ {
				// Fire-and-forget: the responses are dropped as unknown.
				// The ledger already counts these references; a failure
				// here surfaces on the next wait/open of the file.
				enc(c.newID(), netproto.OpOpen, netproto.FileBody{Context: ctxName, File: f})
			}
		}
	}
	for _, w := range watches {
		rem := w.remaining()
		c.mu.Lock()
		delete(c.subs, w.id)
		delete(c.watches, w.id)
		c.mu.Unlock()
		if len(rem) == 0 {
			// Every file resolved before the reset; only the final Done
			// frame was lost. Synthesize it.
			go w.deliver(netproto.Response{Done: true})
			continue
		}
		id := c.newID()
		c.mu.Lock()
		w.id = id
		c.subs[id] = w.deliver
		c.watches[id] = w
		c.mu.Unlock()
		enc(id, netproto.OpSubscribe, netproto.FilesBody{Context: w.ctx.name, Files: rem})
	}
	for _, p := range replay {
		enc(p.id, p.op, p.body)
	}
	_ = c.flushLocked()
}

// endReconnect releases the goroutines gated on the reconnect.
func (c *Client) endReconnect() {
	c.mu.Lock()
	c.reconnecting = false
	c.recCond.Broadcast()
	c.mu.Unlock()
}
