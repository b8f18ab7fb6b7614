package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"simfs/internal/metrics"
)

// pct returns the q-quantile (0..1) of xs, or 0 for an empty sample (a
// metric of a layer the workload does not exercise).
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return metrics.Percentile(xs, q)
}

// latCap is how many latencies a latencies sample keeps (512 KiB).
const latCap = 1 << 16

// latencies is a uniform random sample of at most latCap latencies, in µs,
// kept by reservoir sampling in a buffer allocated and written in full
// when the sample is made. The benchmark's own memory therefore does not
// grow with the number of accesses, and the timed phase's resident set
// does not follow its throughput.
type latencies struct {
	n   int64 // latencies offered
	buf []float64
	rng uint64 // xorshift64 state: the same sequence on every run
}

func newLatencies() *latencies {
	buf := make([]float64, latCap)
	for i := range buf {
		buf[i] = 1 // fault every page in now, not during the timed phase
	}
	return &latencies{buf: buf[:0], rng: 0x9e3779b97f4a7c15}
}

func (l *latencies) add(d time.Duration) {
	l.n++
	us := float64(d) / 1e3
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, us)
		return
	}
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	if j := l.rng % uint64(l.n); j < uint64(len(l.buf)) {
		l.buf[j] = us
	}
}

// quantile returns the sample's q-quantile in µs (0 when empty).
func (l *latencies) quantile(q float64) float64 { return pct(l.buf, q) }

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMiB returns the process's current resident set size in MiB, from
// /proc/self/statm (0 where it cannot be read).
func rssMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return float64(pages*int64(os.Getpagesize())) / (1 << 20)
}

// memSample is the allocation counters of the Go runtime at one instant.
type memSample struct {
	mallocs, bytes uint64
	gcs            uint32
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
}

// window is one sampling interval of a timed phase.
type window struct {
	at   time.Time
	done int64
	cpu  time.Duration
	rss  float64
}

// sampler snapshots the completed-access count and the process CPU time
// at a fixed interval, so throughput and CPU per access can be reported
// as quantiles over intervals: a burst of interference from outside the
// process moves a few intervals, not the whole run's figure.
type sampler struct {
	done    *atomic.Int64
	every   time.Duration
	stop    chan struct{}
	exited  chan struct{}
	samples []window
}

func startSampler(done *atomic.Int64, every time.Duration) *sampler {
	s := &sampler{done: done, every: every, stop: make(chan struct{}), exited: make(chan struct{})}
	s.samples = append(s.samples, window{wallNow(), done.Load(), cpuTime(), rssMiB()})
	go func() {
		defer close(s.exited)
		t := time.NewTicker(every) //simfs:allow wallclock the benchmark samples wall time by design
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case now := <-t.C:
				s.samples = append(s.samples, window{now, s.done.Load(), cpuTime(), rssMiB()})
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the access rate (1/s) of the
// upper quartile of its intervals, and the medians of the CPU time per
// access (µs) and of the resident set size (MiB). The last, partial
// interval counts when it is at least half an interval long.
//
// The rate is the upper quartile because interference from outside the
// process only ever lowers an interval's rate, and on a shared host it
// comes and goes over seconds: the median flips between the disturbed
// and the quiet rate as the disturbed share of a run crosses one half,
// while the upper quartile stays at the quiet rate until more than three
// quarters of the run are disturbed. CPU time per access moves much less
// with such interference, so it is a median.
func (s *sampler) finish() (rate, cpuPerAccessUs, rss float64) {
	close(s.stop)
	<-s.exited
	last := window{wallNow(), s.done.Load(), cpuTime(), rssMiB()}
	if last.at.Sub(s.samples[len(s.samples)-1].at) >= s.every/2 || len(s.samples) == 1 {
		s.samples = append(s.samples, last)
	}
	var rates, cpus, rsss []float64
	for i := 1; i < len(s.samples); i++ {
		a, b := s.samples[i-1], s.samples[i]
		n := float64(b.done - a.done)
		rates = append(rates, n/b.at.Sub(a.at).Seconds())
		rsss = append(rsss, b.rss)
		if n > 0 {
			cpus = append(cpus, float64(b.cpu-a.cpu)/1e3/n)
		}
	}
	return pct(rates, 0.75), pct(cpus, 0.5), pct(rsss, 0.5)
}

// freeHeap collects the heap and returns freed memory to the OS, so the
// timed phase's resident set reflects its own working set and not the
// garbage set-up left behind.
func freeHeap() { debug.FreeOSMemory() }

// wallNow is the benchmark's wall clock: unlike the program's
// virtual-time paths, the benchmark exists to measure wall time.
func wallNow() time.Time {
	return time.Now() //simfs:allow wallclock the benchmark measures wall time by design
}
