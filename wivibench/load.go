package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"wivi/internal/isar"
	"wivi/internal/sim"
)

// outcome is one timed request as its client saw it. Times are offsets
// from the start of the timed phase.
type outcome struct {
	// origin is when the request was due (open loop) or sent (closed
	// loop); latencies count from it. sent is when a client sent it.
	origin, sent time.Duration
	// first is when the client decoded its first image frame (for a
	// batch request, the whole result); done when it decoded the result.
	first, done time.Duration
	frames      int
	// lags holds each frame's lag in ms (see the workload docs).
	lags      []float64
	queueWait time.Duration
	// service is engine time: done - sent - queueWait.
	service time.Duration
	// capture is the capture length in seconds, the request's SLO.
	capture float64
	// ttffPop says whether the request counts toward time to first
	// frame, metSLO whether it counts toward goodput.
	ttffPop, metSLO bool
	err             error
}

func (o *outcome) latency() time.Duration { return o.done - o.origin }

// tally counts operations and failures; a failed check is a failed
// operation.
type tally struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	errs              []string
}

// op records one operation; a non-nil err fails it.
func (t *tally) op(err error) bool {
	t.attempted.Add(1)
	if err == nil {
		return true
	}
	t.failed.Add(1)
	t.mu.Lock()
	if len(t.errs) < 20 {
		t.errs = append(t.errs, err.Error())
	}
	t.mu.Unlock()
	return false
}

// check records a correctness check as an operation.
func (t *tally) check(ok bool, format string, args ...any) bool {
	if ok {
		return t.op(nil)
	}
	return !t.op(fmt.Errorf("check failed: "+format, args...))
}

// expectedFrames is the frame count of a capture of dur seconds, by the
// same sample arithmetic the device uses.
func expectedFrames(dur float64) int {
	n := int(dur / sim.DefaultCalibration().SampleT)
	c := isar.DefaultConfig()
	if n < c.Window {
		return 0
	}
	return (n-c.Window)/c.Hop + 1
}

// windowSeconds is the span of one analysis window.
func windowSeconds() float64 {
	return float64(isar.DefaultConfig().Window) * sim.DefaultCalibration().SampleT
}

// checkPower verifies one frame's min-normalized spectrum: the minimum
// is exactly 1 and every value is finite.
func checkPower(p []float64) error {
	if len(p) == 0 {
		return fmt.Errorf("empty spectrum")
	}
	lo := math.Inf(1)
	for _, v := range p {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite spectrum value %v", v)
		}
		lo = math.Min(lo, v)
	}
	if lo != 1 {
		return fmt.Errorf("spectrum minimum %v, want 1", lo)
	}
	return nil
}

// cpuSnapshot is the runtime's CPU-class accounting and the frame-kernel
// counters at one instant.
type cpuSnapshot struct {
	total, user, gc, idle float64 // CPU-seconds
	kernel                isar.KernelStats
}

var cpuMetrics = []string{
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readCPU() cpuSnapshot {
	samples := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	f := func(i int) float64 {
		if samples[i].Value.Kind() == metrics.KindFloat64 {
			return samples[i].Value.Float64()
		}
		return 0
	}
	return cpuSnapshot{total: f(0), user: f(1), gc: f(2), idle: f(3), kernel: isar.ReadKernelStats()}
}

// allocsNow reads the cumulative heap allocation count.
func allocsNow() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// kernelNs sums the covariance, eig and spectrum stage time of a kernel
// counter delta.
func kernelNs(a, b isar.KernelStats) time.Duration {
	return time.Duration((b.CovNs - a.CovNs) + (b.EigNs - a.EigNs) + (b.SpecNs - a.SpecNs))
}

// maxRSSMB is the process's peak resident set in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// loadResult is what a timed phase hands to the reporting code.
type loadResult struct {
	outcomes []*outcome
	elapsed  time.Duration
	// genLate holds, per request, how late its client sent it: the open
	// loop's send − due, or the closed loop's gap between one result and
	// the next send.
	genLate []float64
	// workers is the number of engine workers serving the phase.
	workers  int
	rejected int64
	// msgErrors counts gesture results whose bits differ from the message
	// sent.
	msgErrors int
	cpu0      cpuSnapshot
	cpu1      cpuSnapshot
}

// clients is the load generator's concurrency: at most two, and never
// more than the machine's CPUs.
func clients() int { return min(2, runtime.NumCPU()) }

// endToEnd reports every end-to-end metric of a timed phase.
func endToEnd(m *metricSet, lr *loadResult, setup float64) {
	var lat, ttff, lags []float64
	frames, atSLO := 0, 0
	for _, o := range lr.outcomes {
		if o.err != nil {
			continue
		}
		frames += o.frames
		lat = append(lat, ms(o.latency()))
		if o.ttffPop {
			ttff = append(ttff, ms(o.first-o.origin))
		}
		lags = append(lags, o.lags...)
		if o.metSLO {
			atSLO++
		}
	}
	sec := lr.elapsed.Seconds()
	logf("%d timed requests, %d in the latency population, %d time-to-first-frame samples, %d frame lags, over %.1f s",
		len(lr.outcomes), len(lat), len(ttff), len(lags), sec)
	m.set("setup_s", "s", setup)
	m.set("frames_per_s", "frames/s", float64(frames)/sec)
	m.set("request_p50_ms", "ms", median(lat))
	m.tail("request_p90_ms", lat, 90)
	m.set("ttff_p50_ms", "ms", median(ttff))
	m.set("frame_lag_p50_ms", "ms", median(lags))
	m.tail("frame_lag_p90_ms", lags, 90)
	m.set("goodput_rps", "1/s", float64(atSLO)/sec)
	m.set("max_rss_mb", "MB", maxRSSMB())
}

// loadLayers reports the per-layer figures a timed phase yields: queue
// waits, engine busy share, admission refusals, generator lateness, and
// where the machine's CPU time per frame went.
func loadLayers(m *metricSet, lr *loadResult) {
	var waits []float64
	var busy time.Duration
	frames := 0
	for _, o := range lr.outcomes {
		if o.err != nil {
			continue
		}
		waits = append(waits, ms(o.queueWait))
		busy += o.service
		frames += o.frames
	}
	wq, _ := percentile(waits, 50)
	m.set("pipeline.queue_wait_p50_ms", "ms", wq)
	m.tail("pipeline.queue_wait_p90_ms", waits, 90)
	m.set("pipeline.busy_share", "ratio", busy.Seconds()/(float64(lr.workers)*lr.elapsed.Seconds()))
	m.set("pool.rejected", "count", float64(lr.rejected))
	m.tail("gen.late_p90_ms", lr.genLate, 90)
	perFrame := func(cpuSec float64) float64 { return cpuSec * 1e6 / float64(frames) }
	a, b := lr.cpu0, lr.cpu1
	m.set("load.core_us_per_frame", "us", perFrame(b.total-a.total))
	m.set("load.user_us_per_frame", "us", perFrame(b.user-a.user))
	m.set("load.gc_us_per_frame", "us", perFrame(b.gc-a.gc))
	m.set("load.idle_us_per_frame", "us", perFrame(b.idle-a.idle))
	m.set("load.kernel_us_per_frame", "us", perFrame(kernelNs(a.kernel, b.kernel).Seconds()))
}
