package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"wivi"
	"wivi/internal/pool"
	"wivi/internal/rng"
	"wivi/internal/serve"
)

// reqSpec is one generated request: everything the timed phase sends
// and everything a replay needs to rebuild its device.
type reqSpec struct {
	Tenant   string // "" for the in-process engine
	Device   string // registry name
	Spec     sceneSpec
	Mode     wivi.Mode
	Stream   bool
	Duration float64
	// Due is the open-loop send time, as an offset from the phase start.
	Due time.Duration
}

func (r reqSpec) modeString() string {
	if r.Mode == wivi.Gesture {
		return serve.ModeGesture
	}
	return serve.ModeTrack
}

// workload is one named traffic mix.
type workload struct {
	name string
	// setup builds the fleet and the serving stack and warms it up; the
	// returned env serves the timed phase and is closed afterwards.
	setup func(seed int64) (env, error)
	// replay lists the requests the traced run replays, in send order.
	replay func(seed int64, seconds time.Duration) []reqSpec
	// top names the deepest stack depth the workload's users reach.
	top depth
}

// env is one set-up instance of a workload.
type env interface {
	// run executes the timed phase for the given span.
	run(ctx context.Context, span time.Duration, t *tally) *loadResult
	// check runs the post-phase correctness checks.
	check(ctx context.Context, t *tally)
	close()
}

// workloads are the traffic mixes BENCHMARK.json declares.
var workloads = map[string]workload{
	"offline-track": {name: "offline-track", setup: setupOffline, replay: offlineReplay, top: depthEngine},
	"serve-short":   {name: "serve-short", setup: setupServeShort, replay: serveShortSchedule, top: depthWire},
}

// walkS is how long each walker moves, longer than any capture a
// workload sends: every capture starts at scene time 0.
const walkS = 61

// seedFor derives the i-th scene seed of a workload from the run seed.
func seedFor(seed int64, label string, i int) int64 {
	return int64(rng.DeriveSeed(seed, fmt.Sprintf("wivibench/%s/%d", label, i)).Intn(1<<30)) + 1
}

// phaseClock times a phase from its start.
type phaseClock struct{ start time.Time }

//wivi:wallclock the load generator measures real elapsed time by design
func newPhaseClock() phaseClock { return phaseClock{start: time.Now()} }

//wivi:wallclock the load generator measures real elapsed time by design
func (c phaseClock) now() time.Duration { return time.Since(c.start) }

// sleepUntil waits until offset at of the phase.
//
//wivi:wallclock the open-loop generator sends on a real-time schedule
func (c phaseClock) sleepUntil(ctx context.Context, at time.Duration) {
	d := at - c.now()
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// ---- offline-track --------------------------------------------------

// offlineKinds is the request rotation: scenes with 1, 2 and 3 walkers,
// then a gesture sender, so every 4th request is gesture mode.
const offlineKinds = 4

// offlineWalkerCopies is how many scenes of each walker count one client
// cycles through, so a run's figures average over many scenes rather
// than hang on the few that one seed draws.
const offlineWalkerCopies = 3

// offlineGestureScenes is how many gesture senders one client cycles
// through: the accuracy check (gestureErrorCeiling) needs a run's
// gesture results to sample the decoder over many scenes.
const offlineGestureScenes = 32

// gestureErrorCeiling fails an offline-track run in which a larger share
// of gesture results decode a different message than was sent. The
// decoder drops or flips a bit on about one scene in eight at 3 m, the
// same on nearly every capture of the scene (README.md), so over a run's
// 64 gesture scenes a share above the ceiling is a regression rather
// than chance, and a decoder that garbles every message fails at once.
const gestureErrorCeiling = 0.3

// offlineCapture is the unpaced batch capture length: about 97 frames,
// which fills the 16-frame warm-start cohorts.
const offlineCapture = 8.0

// offlineRequest is client c's j-th request.
func offlineRequest(seed int64, c, j int) reqSpec {
	kind, cycle := j%offlineKinds, j/offlineKinds
	if kind < 3 {
		k := cycle % offlineWalkerCopies
		spec := sceneSpec{Seed: seedFor(seed, "offline", (c*offlineWalkerCopies+k)*offlineKinds+kind), Walkers: kind + 1, WalkS: walkS}
		return reqSpec{Device: fmt.Sprintf("c%d.w%d.%d", c, kind+1, k), Spec: spec, Duration: offlineCapture}
	}
	g := cycle % offlineGestureScenes
	spec := sceneSpec{Seed: seedFor(seed, "offline-gesture", c*offlineGestureScenes+g), WalkS: walkS}
	r := rng.New(spec.Seed)
	spec.Gesture = []wivi.Bit{wivi.Bit(r.Intn(2)), wivi.Bit(r.Intn(2))}
	return reqSpec{Device: fmt.Sprintf("c%d.g%d", c, g), Spec: spec, Mode: wivi.Gesture, Duration: gestureDuration(len(spec.Gesture))}
}

func offlineReplay(seed int64, _ time.Duration) []reqSpec {
	var out []reqSpec
	for j := 0; j < offlineKinds; j++ {
		for c := 0; c < clients(); c++ {
			out = append(out, offlineRequest(seed, c, j))
		}
	}
	return out
}

type offlineEnv struct {
	seed int64
	eng  *wivi.Engine
	devs map[string]*wivi.Device

	mu sync.Mutex
	// firsts holds the first result of each client's first scene of
	// every kind, for the replica check.
	firsts map[string]*wivi.Result
	// gestures counts gesture results, msgErr those whose bits differ
	// from the message sent.
	gestures, msgErr int
}

func setupOffline(seed int64) (env, error) {
	e := &offlineEnv{seed: seed, eng: wivi.NewEngine(wivi.EngineOptions{}), devs: map[string]*wivi.Device{}, firsts: map[string]*wivi.Result{}}
	for c := 0; c < clients(); c++ {
		for j := 0; j < offlineKinds*max(offlineWalkerCopies, offlineGestureScenes); j++ {
			r := offlineRequest(seed, c, j)
			if _, ok := e.devs[r.Device]; ok {
				continue
			}
			d, err := r.Spec.wiviDevice(0)
			if err != nil {
				e.close()
				return nil, err
			}
			e.devs[r.Device] = d
		}
	}
	if err := nullAll(e.devs); err != nil {
		e.close()
		return nil, err
	}
	// Warm-up: one request on a scene of its own, so the timed fleet
	// starts from its nulled state.
	warm := sceneSpec{Seed: seedFor(seed, "offline-warm", 0), Walkers: 1, WalkS: walkS}
	d, err := warm.wiviDevice(0)
	if err == nil {
		_, err = submitWait(context.Background(), e.eng, wivi.Request{Device: d, Duration: offlineCapture})
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("offline-track warm-up: %w", err)
	}
	return e, nil
}

func submitWait(ctx context.Context, eng *wivi.Engine, req wivi.Request) (*wivi.Result, error) {
	h, err := eng.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return h.Wait(ctx)
}

func (e *offlineEnv) close() { e.eng.Close() }

// run is a closed loop: each client sends its next request as soon as
// the previous result is back, until the span is over.
func (e *offlineEnv) run(ctx context.Context, span time.Duration, t *tally) *loadResult {
	lr := &loadResult{workers: e.eng.Stats().Workers, cpu0: readCPU()}
	clk := newPhaseClock()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			last := time.Duration(0)
			for j := 0; clk.now() < span; j++ {
				r := offlineRequest(e.seed, c, j)
				o := &outcome{capture: r.Duration, ttffPop: true}
				o.sent = clk.now()
				o.origin = o.sent
				res, err := submitWait(ctx, e.eng, wivi.Request{Device: e.devs[r.Device], Duration: r.Duration, Mode: r.Mode})
				o.done = clk.now()
				o.first = o.done
				late := ms(o.sent - last)
				last = o.done
				if t.op(err) {
					e.inspect(r, res, o, j < offlineKinds, t)
				} else {
					o.err = err
				}
				mu.Lock()
				lr.outcomes = append(lr.outcomes, o)
				lr.genLate = append(lr.genLate, late)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	lr.elapsed = clk.now()
	lr.cpu1 = readCPU()
	lr.msgErrors = e.msgErr
	return lr
}

// inspect checks one result and fills the outcome's figures; first
// keeps the result for the replica check. Every frame of a batch result
// arrives with it, so each frame's lag is the request latency.
func (e *offlineEnv) inspect(r reqSpec, res *wivi.Result, o *outcome, first bool, t *tally) {
	o.frames = res.Tracking.NumFrames()
	o.queueWait = res.QueueWait
	o.service = o.done - o.sent - o.queueWait
	o.metSLO = o.latency().Seconds() <= r.Duration
	lag := ms(o.latency())
	o.lags = make([]float64, o.frames)
	for i := range o.lags {
		o.lags[i] = lag
	}
	t.check(o.frames == expectedFrames(r.Duration), "%s: %d frames, want %d", r.Device, o.frames, expectedFrames(r.Duration))
	e.mu.Lock()
	defer e.mu.Unlock()
	if r.Mode == wivi.Gesture {
		e.gestures++
		if t.check(res.Message != nil, "%s: gesture result without a message", r.Device) && res.Message.String() != bitsString(r.Spec.Gesture) {
			e.msgErr++
		}
	}
	if first {
		e.firsts[r.Device] = res
	}
}

// check replays the first timed request of each client's first scene of
// every kind as a stream on a fresh identically seeded replica: the
// streamed frames must be min-normalized, and the streamed result (and
// gesture decode) must Equal the timed batch result. Then it holds the
// timed gesture results to gestureErrorCeiling.
func (e *offlineEnv) check(ctx context.Context, t *tally) {
	for c := 0; c < clients(); c++ {
		for j := 0; j < offlineKinds; j++ {
			r := offlineRequest(e.seed, c, j)
			first := e.firsts[r.Device]
			if first == nil {
				continue
			}
			res, err := replicaStream(ctx, e.eng, r, t)
			if !t.op(err) {
				continue
			}
			t.check(res.Tracking.Equal(first.Tracking), "%s: streamed replica differs from the timed batch result", r.Device)
			if r.Mode == wivi.Gesture {
				t.check(res.Message != nil && first.Message != nil && res.Message.String() == first.Message.String(),
					"%s: replica decodes %v, timed request decoded %v", r.Device, res.Message, first.Message)
			}
		}
	}
	logf("offline-track: %d of %d gesture results decoded a different message than was sent", e.msgErr, e.gestures)
	if e.gestures > 0 {
		t.check(float64(e.msgErr) <= gestureErrorCeiling*float64(e.gestures), "%d of %d gesture results decoded a different message than was sent, more than %.0f %%",
			e.msgErr, e.gestures, 100*gestureErrorCeiling)
	}
}

// replicaStream streams r in-process on a fresh, nulled replica of its
// device and checks every frame; it returns the assembled result.
func replicaStream(ctx context.Context, eng *wivi.Engine, r reqSpec, t *tally) (*wivi.Result, error) {
	frames, res, err := replicaFrames(ctx, eng, r)
	if err != nil {
		return nil, err
	}
	t.check(len(frames) == expectedFrames(r.Duration), "%s replica: %d frames, want %d", r.Device, len(frames), expectedFrames(r.Duration))
	for _, fr := range frames {
		if err := checkPower(fr.Power); err != nil {
			t.check(false, "%s replica frame %d: %v", r.Device, fr.Index, err)
			break
		}
	}
	return res, nil
}

func replicaFrames(ctx context.Context, eng *wivi.Engine, r reqSpec) ([]wivi.StreamFrame, *wivi.Result, error) {
	d, err := r.Spec.wiviDevice(0)
	if err != nil {
		return nil, nil, err
	}
	if _, err := d.Null(); err != nil {
		return nil, nil, err
	}
	h, err := eng.Submit(ctx, wivi.Request{Device: d, Duration: r.Duration, Mode: r.Mode, Stream: true})
	if err != nil {
		return nil, nil, err
	}
	ts, err := h.Stream(ctx)
	if err != nil {
		return nil, nil, err
	}
	var frames []wivi.StreamFrame
	for fr := range ts.Frames() {
		frames = append(frames, fr)
	}
	res, err := h.Wait(ctx)
	return frames, res, err
}

// ---- the serving stack ----------------------------------------------

// streamSlots is each tenant's stream budget. Every client connection
// may hold a stream open, and the router frees a slot only once its
// request has settled, asynchronously, so a client's next stream can
// briefly overlap its previous one's slot: two slots per client keep a
// well-behaved closed-loop client from ever drawing a 429. The engine
// default (workers − 1) refuses the second client's concurrent stream.
var streamSlots = 2 * clients()

// served is an in-process wivi-serve: a pool.Router behind serve.Server
// on a loopback listener, the backend cmd/wivi-serve builds.
type served struct {
	router *pool.Router
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	tr     *http.Transport
	base   string
	specs  map[string]map[string]sceneSpec // tenant -> device -> spec
	eng    *wivi.Engine                    // in-process replicas for checks
}

func newServed(specs map[string]map[string]sceneSpec) (*served, error) {
	var tenants []string
	for t := range specs {
		tenants = append(tenants, t)
	}
	s := &served{specs: specs}
	s.router = pool.NewRouter(pool.Options{
		Budget:  pool.Budget{MaxStreams: streamSlots},
		Tenants: tenants,
		Devices: func(tenant string) (map[string]*wivi.Device, error) {
			reg := map[string]*wivi.Device{}
			for name, spec := range specs[tenant] {
				d, err := spec.wiviDevice(0)
				if err != nil {
					return nil, err
				}
				reg[name] = d
			}
			return reg, nil
		},
	})
	srv, err := serve.New(serve.Config{Pool: s.router})
	if err != nil {
		s.router.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.router.Close()
		return nil, err
	}
	s.hs, s.served = &http.Server{Handler: srv}, make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	s.base = "http://" + ln.Addr().String()
	s.tr = &http.Transport{MaxIdleConnsPerHost: clients()}
	s.eng = wivi.NewEngine(wivi.EngineOptions{})
	// Build and null every tenant's fleet now, not on its first request.
	for _, t := range tenants {
		_, devs, err := s.router.Devices(t)
		if err == nil {
			err = nullAll(devs)
		}
		if err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *served) client(tenant string) *serve.Client {
	return &serve.Client{BaseURL: s.base, Tenant: tenant, HTTPClient: &http.Client{Transport: s.tr}}
}

func (s *served) close() {
	s.hs.Close()
	<-s.served
	s.tr.CloseIdleConnections()
	s.router.Close()
	s.eng.Close()
}

// workers is the engine worker count across the tenants with a live
// engine.
func (s *served) workers() int {
	n := 0
	for _, ts := range s.router.Stats().Tenants {
		if ts.Active {
			n += ts.Budget.Workers
		}
	}
	return n
}

// send runs one request over HTTP and fills o; each frame's lag counts
// from o.origin. For a stream every frame is checked as it is decoded,
// and handed to keep when that is not nil.
func (s *served) send(ctx context.Context, clk phaseClock, r reqSpec, o *outcome, keep func(serve.Frame), t *tally) error {
	c := s.client(r.Tenant)
	req := serve.TrackRequest{Device: r.Device, Mode: r.modeString(), DurationS: r.Duration}
	want := expectedFrames(r.Duration)
	if !r.Stream {
		res, err := c.Track(ctx, req)
		o.done = clk.now()
		o.first = o.done
		if err != nil {
			return err
		}
		o.frames = res.NumFrames
		o.queueWait = time.Duration(res.QueueWaitMs * float64(time.Millisecond))
		o.lags = make([]float64, o.frames)
		for i := range o.lags {
			o.lags[i] = ms(o.done - o.origin)
		}
		t.check(o.frames == want, "%s/%s: %d frames, want %d", r.Tenant, r.Device, o.frames, want)
		return nil
	}
	cs, err := c.TrackStream(ctx, req)
	if err != nil {
		o.done = clk.now()
		return err
	}
	defer cs.Close()
	powerOK := true
	for {
		fr, ok := cs.Next()
		if !ok {
			break
		}
		recv := clk.now()
		if o.frames == 0 {
			o.first = recv
		}
		o.frames++
		o.lags = append(o.lags, ms(recv-o.origin))
		if keep != nil {
			keep(fr)
		}
		if err := checkPower(fr.Power); err != nil && powerOK {
			powerOK = t.check(false, "%s/%s frame %d: %v", r.Tenant, r.Device, fr.Index, err)
		}
	}
	o.done = clk.now()
	if err := cs.Err(); err != nil {
		return err
	}
	res := cs.Result()
	o.queueWait = time.Duration(res.QueueWaitMs * float64(time.Millisecond))
	t.check(o.frames == want && res.NumFrames == want, "%s/%s: streamed %d frames (result says %d), want %d",
		r.Tenant, r.Device, o.frames, res.NumFrames, want)
	return nil
}

// refused reports whether err is an admission refusal (typed 429/503).
func refused(err error) bool {
	var apiErr *serve.APIError
	return errors.As(err, &apiErr) && (apiErr.Status == http.StatusTooManyRequests || apiErr.Status == http.StatusServiceUnavailable)
}

// wireCheck streams each tenant's untouched check device over HTTP and
// the same request in-process on a fresh replica: every frame must match
// Float64bits for Float64bits. A batch capture on a second replica must
// Equal the in-process streamed result.
func (s *served) wireCheck(ctx context.Context, t *tally) {
	for tenant, devs := range s.specs {
		spec, ok := devs["chk"]
		if !ok {
			continue
		}
		r := reqSpec{Tenant: tenant, Device: "chk", Spec: spec, Duration: 1, Stream: true}
		o := &outcome{}
		var wire []serve.Frame
		err := s.send(ctx, newPhaseClock(), r, o, func(fr serve.Frame) { wire = append(wire, fr) }, t)
		if !t.op(err) {
			continue
		}
		local, res, err := replicaFrames(ctx, s.eng, r)
		if !t.op(err) {
			continue
		}
		same := len(local) == len(wire)
		for i := 0; same && i < len(local); i++ {
			same = local[i].Index == wire[i].Index &&
				math.Float64bits(local[i].Time) == math.Float64bits(wire[i].TimeS) &&
				len(local[i].Power) == len(wire[i].Power)
			for k := 0; same && k < len(local[i].Power); k++ {
				same = math.Float64bits(local[i].Power[k]) == math.Float64bits(wire[i].Power[k])
			}
		}
		t.check(same, "%s/chk: frames streamed over HTTP differ from the in-process replica", tenant)
		d, err := spec.wiviDevice(0)
		if err == nil {
			_, err = d.Null()
		}
		var batch *wivi.Result
		if err == nil {
			batch, err = submitWait(ctx, s.eng, wivi.Request{Device: d, Duration: r.Duration})
		}
		if t.op(err) {
			t.check(batch.Tracking.Equal(res.Tracking), "%s/chk: batch and streamed replica results differ", tenant)
		}
	}
}

// ---- serve-short ----------------------------------------------------

// serveShortRate is the open loop's fixed arrival rate in requests per
// second: a third of the 72 requests/s that two loopback clients reached
// at saturation on a 2-CPU host when the benchmark was defined. That
// host lost 10–30 % of its CPU to other tenants in bursts; at two thirds
// or half of capacity such a burst tipped the loop into a growing queue
// and doubled its latencies, so the rate leaves room for it. It is an
// absolute number on purpose, so a faster stack meets the same offered
// load with shorter latencies.
const serveShortRate = 24.0

var serveTenants = []string{"t0", "t1"}

func serveShortSpecs(seed int64) map[string]map[string]sceneSpec {
	out := map[string]map[string]sceneSpec{}
	for ti, t := range serveTenants {
		devs := map[string]sceneSpec{}
		for w := 1; w <= 3; w++ {
			devs[fmt.Sprintf("d%d", w)] = sceneSpec{Seed: seedFor(seed, "serve", ti*8+w), Walkers: w, WalkS: walkS}
		}
		devs["warm"] = sceneSpec{Seed: seedFor(seed, "serve-warm", ti), Walkers: 1, WalkS: walkS}
		devs["chk"] = sceneSpec{Seed: seedFor(seed, "serve-chk", ti), Walkers: 2, WalkS: walkS}
		out[t] = devs
	}
	return out
}

// serveShortSchedule draws the open loop's requests from the seed:
// serveShortRate × span arrivals, each placed uniformly at random over
// the span (a Poisson process at that rate, conditioned on its count, so
// the seed moves the arrival times but not the offered load), each to a
// random tenant and walker count, 0.5–1 s long, half batch and half
// streamed.
func serveShortSchedule(seed int64, span time.Duration) []reqSpec {
	r := rng.DeriveSeed(seed, "wivibench/serve-short/schedule")
	specs := serveShortSpecs(seed)
	due := make([]float64, int(math.Round(serveShortRate*span.Seconds())))
	for i := range due {
		due[i] = r.Float64() * span.Seconds()
	}
	sort.Float64s(due)
	out := make([]reqSpec, len(due))
	for i, at := range due {
		t := serveTenants[r.Intn(len(serveTenants))]
		dev := fmt.Sprintf("d%d", 1+r.Intn(3))
		out[i] = reqSpec{Tenant: t, Device: dev, Spec: specs[t][dev], Duration: r.Uniform(0.5, 1.0), Stream: r.Float64() < 0.5,
			Due: time.Duration(at * float64(time.Second))}
	}
	return out
}

// openLoop hands each scheduled request to one of the client goroutines at
// its due time, whether or not earlier ones are done, and returns once
// every request has been sent and send has returned. It reports how late
// each request was sent, in ms.
func openLoop(ctx context.Context, clk phaseClock, sched []reqSpec, send func(i int, sent time.Duration)) []float64 {
	late := make([]float64, len(sched))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < clients(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sent := clk.now()
				late[i] = ms(sent - sched[i].Due)
				send(i, sent)
			}
		}()
	}
	for i := range sched {
		clk.sleepUntil(ctx, sched[i].Due)
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return late
}

// sendFromDue sends one open-loop request and fills its outcome; every
// figure counts from the due time, so a stalled client charges its wait
// to every request queued behind it. Streamed requests count toward time
// to first frame.
func (s *served) sendFromDue(ctx context.Context, clk phaseClock, r reqSpec, sent time.Duration, t *tally) *outcome {
	o := &outcome{origin: r.Due, sent: sent, capture: r.Duration, ttffPop: r.Stream}
	err := s.send(ctx, clk, r, o, nil, t)
	if !t.op(err) {
		o.err = err
	}
	o.service = o.done - o.sent - o.queueWait
	o.metSLO = o.err == nil && o.latency().Seconds() <= r.Duration
	return o
}

type serveShortEnv struct {
	seed int64
	s    *served
}

func setupServeShort(seed int64) (env, error) {
	s, err := newServed(serveShortSpecs(seed))
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for _, t := range serveTenants {
		for _, stream := range []bool{false, true} {
			r := reqSpec{Tenant: t, Device: "warm", Duration: 1, Stream: stream}
			if err := s.send(ctx, newPhaseClock(), r, &outcome{}, nil, &tally{}); err != nil {
				s.close()
				return nil, fmt.Errorf("serve-short warm-up: %w", err)
			}
		}
	}
	return &serveShortEnv{seed: seed, s: s}, nil
}

func (e *serveShortEnv) close() { e.s.close() }

func (e *serveShortEnv) check(ctx context.Context, t *tally) { e.s.wireCheck(ctx, t) }

// run is the open loop: each request goes to a free client at its due
// time.
func (e *serveShortEnv) run(ctx context.Context, span time.Duration, t *tally) *loadResult {
	sched := serveShortSchedule(e.seed, span)
	lr := &loadResult{workers: e.s.workers(), cpu0: readCPU(), outcomes: make([]*outcome, len(sched))}
	clk := newPhaseClock()
	lr.genLate = openLoop(ctx, clk, sched, func(i int, sent time.Duration) {
		lr.outcomes[i] = e.s.sendFromDue(ctx, clk, sched[i], sent, t)
	})
	for _, o := range lr.outcomes {
		if o.err != nil && refused(o.err) {
			lr.rejected++
		}
	}
	// The phase lasts until the last response, so with a fixed count of
	// requests the rates still carry the measured length.
	lr.elapsed = clk.now()
	lr.cpu1 = readCPU()
	return lr
}
