// Command wivibench is the repository benchmark. One invocation runs one
// named workload against the real stack from a single load-generating
// process, checks the outputs, and prints one JSON line:
//
//	wivibench -workload offline-track -seed 1 -seconds 40 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of an untraced timed
// phase. With -trace 1 it runs the same timed phase, then replays the
// workload's requests one at a time through every layer of the stack and
// reports per-layer metrics instead. README.md beside this file explains
// each workload, each metric, and which layer moves which end-to-end
// figure.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run builds its whole stack; setup_s is
// the median, so one slow build does not move it.
const setupReps = 5

// genLateBoundMs voids an open-loop run whose generator sent its p90
// request later than this: the backlog is growing, and the latencies no
// longer describe the offered rate.
const genLateBoundMs = 1000

// spanDir is where a traced run writes its spans, relative to the
// working directory.
const spanDir = ".bench_build"

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wivibench: "+format+"\n", args...)
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed every generated scene and request derives from")
	seconds := flag.Int("seconds", 40, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 replays the requests through every layer and reports per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		logf("%s: %v", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("encoding result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func run(ctx context.Context, w workload, seed int64, span time.Duration, traced bool) (*result, error) {
	var setups []float64
	var e env
	for i := 0; i < setupReps; i++ {
		if e != nil {
			e.close()
		}
		clk := newPhaseClock()
		var err error
		if e, err = w.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, clk.now().Seconds())
	}
	t := &tally{}
	lr := e.run(ctx, span, t)
	e.check(ctx, t)
	e.close()
	late, _ := percentile(lr.genLate, 90)
	t.check(late <= genLateBoundMs, "generator p90 lateness %.1f ms exceeds %d ms: run void", late, genLateBoundMs)

	m := newMetricSet()
	if !traced {
		endToEnd(m, lr, median(setups))
	} else {
		loadLayers(m, lr)
		m.set("gesture.message_errors", "count", float64(lr.msgErrors))
		if err := traceLayers(ctx, m, w, seed, span, t); err != nil {
			return nil, err
		}
	}
	if len(m.errs) > 0 {
		return nil, fmt.Errorf("metrics: %s", strings.Join(m.errs, "; "))
	}
	for _, msg := range t.errs {
		logf("%s", msg)
	}
	res := &result{Attempted: t.attempted.Load(), Failed: t.failed.Load(), Metrics: m.m}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	logf("%s seed %d: %d operations, %d failed", w.name, seed, res.Attempted, res.Failed)
	return res, nil
}

// traceLayers replays the workload's requests through the ladder up to
// its top depth and reports the per-layer metrics; the spans go to
// spanDir. A workload whose users do not reach the HTTP depths gets its
// pool, serve, client and wire figures from httpProbe instead.
func traceLayers(ctx context.Context, m *metricSet, w workload, seed int64, span time.Duration, t *tally) error {
	reqs := w.replay(seed, span)
	if len(reqs) > maxReplay {
		reqs = reqs[:maxReplay]
	}
	httpReqs := reqs
	if w.top < depthWire {
		httpReqs = httpProbe(reqs[0])
	}
	l, err := newLadder(httpReqs)
	if err != nil {
		return fmt.Errorf("trace setup: %w", err)
	}
	defer l.close()
	done := l.replay(ctx, reqs, w.top, span, t)
	if len(done) == 0 {
		return fmt.Errorf("trace: no request completed the ladder")
	}
	upper := done
	if w.top < depthWire {
		if upper = l.replay(ctx, httpReqs, depthWire, math.MaxInt64, t); len(upper) < len(httpReqs) {
			return fmt.Errorf("trace: the HTTP probe did not complete the ladder")
		}
	}
	hasGesture := false
	for _, pr := range done {
		hasGesture = hasGesture || pr.r.Spec.Gesture != nil
	}
	layerMetrics(m, done, w.top, hasGesture)
	upperLayerMetrics(m, upper)
	if !hasGesture {
		m.set("gesture.decode_us_per_req", "us", decodeCost(done))
	}
	logf("trace: %d requests replayed up to the %s depth", len(done), w.top)
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return err
	}
	return l.rec.write(filepath.Join(spanDir, fmt.Sprintf("spans-%s-%d.json", w.name, seed)))
}

// httpProbe is what a workload whose users stop at the engine replays
// through the HTTP depths: a 1 s batch and a 1 s streamed tracking
// capture of its first request's scene. It measures the fixed cost the
// pool, serve, client and wire layers would add to that workload's
// requests.
func httpProbe(r reqSpec) []reqSpec {
	batch := reqSpec{Device: r.Device, Spec: r.Spec, Duration: 1}
	stream := batch
	stream.Stream = true
	return []reqSpec{batch, stream}
}

// maxReplay bounds the requests a traced run prebuilds replicas for.
const maxReplay = 32
