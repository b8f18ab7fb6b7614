package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the program,
// or one callback the program made through a seam the benchmark wrapped.
// Spans of one analysis access share its access id; Parent is the index
// of the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Access uint64 `json:"access"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log of a traced run (about 50 MB);
// spans past it are counted, not kept.
const maxSpans = 1 << 20

// tracer keeps a traced run's spans in memory until the run ends. A nil
// *tracer is the untraced run: every method is a no-op.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: wallNow()} }

// now returns the tracer's clock (0 when untraced).
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(wallNow().Sub(t.t0))
}

// begin opens a span and returns its index (-1 when untraced or full).
func (t *tracer) begin(name string, access uint64, parent int32) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Access: access, Parent: parent, Start: start, End: -1})
	return int32(len(t.spans) - 1)
}

// end closes a span opened by begin.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// record adds a finished span.
func (t *tracer) record(name string, access uint64, parent int32, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{Name: name, Access: access, Parent: parent, Start: start, End: end})
}

// reset drops the spans recorded so far (set-up and warm pass), keeping
// only the timed phase's.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.dropped = 0
	t.mu.Unlock()
}

// spanSummary is the duration and self-time distribution of one span
// name. Self time is a span's duration minus the part of its interval
// that its child spans cover.
type spanSummary struct {
	count       int
	durs, selfs []float64 // ns
	p50, self50 float64
	p99         float64
}

// summarize groups the finished spans by name.
func (t *tracer) summarize() map[string]*spanSummary {
	out := map[string]*spanSummary{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// A span recorded at a seam (vfs.write, core.event) carries the id of
	// the access that caused it but no parent index: it is a child of
	// that access's root span.
	roots := map[uint64]int32{}
	for i, s := range t.spans {
		if s.Name == "access" {
			roots[s.Access] = int32(i)
		}
	}
	children := map[int32][][2]int64{}
	for _, s := range t.spans {
		parent := s.Parent
		if root, ok := roots[s.Access]; ok && parent < 0 && s.Name != "access" {
			parent = root
		}
		if parent >= 0 && s.End >= 0 {
			children[parent] = append(children[parent], [2]int64{s.Start, s.End})
		}
	}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		sum := out[s.Name]
		if sum == nil {
			sum = &spanSummary{}
			out[s.Name] = sum
		}
		d := float64(s.End - s.Start)
		sum.count++
		sum.durs = append(sum.durs, d)
		sum.selfs = append(sum.selfs, d-float64(covered(s.Start, s.End, children[int32(i)])))
	}
	for _, sum := range out {
		sum.p50 = pct(sum.durs, 0.5)
		sum.p99 = pct(sum.durs, 0.99)
		sum.self50 = pct(sum.selfs, 0.5)
	}
	return out
}

// covered returns how much of [start, end] the intervals cover.
func covered(start, end int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, iv := range ivs {
		s, e := max(iv[0], start), min(iv[1], end)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// write stores the spans as JSON lines in dir/<name>.jsonl.
func (t *tracer) write(dir, name string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dir: %w", err)
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return "", fmt.Errorf("span file: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("span file: %w", err)
	}
	return path, nil
}

// connCounters counts the reads, writes and bytes of the connections a
// daemon accepted (installed through Server.WrapConn in traced runs).
type connCounters struct {
	reads, writes, bytesIn, bytesOut atomic.Int64
}

type countingConn struct {
	net.Conn
	c *connCounters
}

func (cc countingConn) Read(p []byte) (int, error) {
	n, err := cc.Conn.Read(p)
	cc.c.reads.Add(1)
	cc.c.bytesIn.Add(int64(n))
	return n, err
}

func (cc countingConn) Write(p []byte) (int, error) {
	n, err := cc.Conn.Write(p)
	cc.c.writes.Add(1)
	cc.c.bytesOut.Add(int64(n))
	return n, err
}

func (c *connCounters) wrap(conn net.Conn) net.Conn { return countingConn{Conn: conn, c: c} }

type connSnapshot struct{ reads, writes, bytesIn, bytesOut int64 }

func (c *connCounters) snapshot() connSnapshot {
	if c == nil {
		return connSnapshot{}
	}
	return connSnapshot{c.reads.Load(), c.writes.Load(), c.bytesIn.Load(), c.bytesOut.Load()}
}

func (a connSnapshot) sub(b connSnapshot) connSnapshot {
	return connSnapshot{a.reads - b.reads, a.writes - b.writes, a.bytesIn - b.bytesIn, a.bytesOut - b.bytesOut}
}
