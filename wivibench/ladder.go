package main

// The traced run: each generated request is replayed one at a time, at
// every depth of the stack up to the one the workload's users reach, on
// fresh identically seeded replicas with one frame worker, so the
// process-global kernel counters and every span belong to that one
// request. Where a layer can be wrapped from
// outside (the radio, the core device inside the engine, the router's
// Submit) its span is timed directly; where it cannot (serve → pool →
// engine), the same request is timed at each depth and the layer's self
// time is the difference of the medians. Before differencing, each
// depth's wall time has the kernel stage time (and, where measured, the
// radio's) taken out, so the noise of the big stages does not swamp the
// small ones.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"time"
	"unsafe"

	"wivi"
	"wivi/internal/core"
	"wivi/internal/gesture"
	"wivi/internal/isar"
	"wivi/internal/ofdm"
	"wivi/internal/pipeline"
	"wivi/internal/pool"
	"wivi/internal/serve"
	"wivi/internal/sim"
)

// depth is one level of the stack a replayed request enters at.
type depth int

const (
	depthCompose  depth = iota // the benchmark calls sim, ofdm, isar, gesture itself
	depthPipeline              // pipeline.Engine over a traced core.Device
	depthPlain                 // the same, untraced (tracing overhead)
	depthEngine                // the public wivi.Engine
	depthPool                  // pool.Router
	depthServe                 // serve.Server.ServeHTTP in-process
	depthWire                  // serve.Client over loopback TCP
	numDepths
)

var depthNames = [numDepths]string{"compose", "pipeline", "plain", "engine", "pool", "serve", "wire"}

func (d depth) String() string { return depthNames[d] }

// sample is one timed replay of one request at one depth.
type sample struct {
	wall, kernel, sim time.Duration
	// residual is wall minus the kernel and radio time.
	residual time.Duration

	// compose-depth breakdown
	ofdm, image, gesture    time.Duration
	cov, eig, spec          time.Duration
	frames                  int
	sweeps, keyframes, kfrm int64
	allocs                  uint64
	nullMs                  float64
	nullIters               int

	// img is the image the compose and engine depths produce.
	img *isar.Image

	// pipeline depth: the core span inside the engine, and the engine
	// span's self time around it
	core, pipeSelf time.Duration
	submit         time.Duration // pool Submit call
	bytes          int
	flushes        int
	decode         time.Duration // client decode over recorded bytes
}

// ladder holds the long-lived stack instances the replay enters.
type ladder struct {
	rec    *recorder
	eng    *pipeline.Engine
	plain  *pipeline.Engine
	public *wivi.Engine
	router *pool.Router

	// The two HTTP depths resolve devices by name, so their registries
	// hold one prebuilt replica per replayed request and repetition.
	srv     *serve.Server
	srvReg  *pool.Router
	wireReg *pool.Router
	hs      *http.Server
	served  chan struct{} // closed when hs.Serve has returned
	client  *serve.Client
	tr      *http.Transport
}

// replicaName names request i's rep-th replica in the HTTP registries.
func replicaName(i, rep int) string { return fmt.Sprintf("r%d.%d", i, rep) }

// repsFor is how many times a request is replayed at each depth: more
// for short captures, whose small per-request layer costs need the
// medians most.
func repsFor(r reqSpec) int {
	if r.Duration > 2 {
		return 3
	}
	return 5
}

// newLadder builds the stack. httpReqs are the requests that will be
// replayed down from the HTTP depths; the HTTP registries hold replicas
// for them alone.
func newLadder(httpReqs []reqSpec) (*ladder, error) {
	l := &ladder{
		rec:    newRecorder(),
		eng:    pipeline.New(pipeline.Config{Workers: 1}),
		plain:  pipeline.New(pipeline.Config{Workers: 1}),
		public: wivi.NewEngine(wivi.EngineOptions{Workers: 1}),
		router: pool.NewRouter(pool.Options{Budget: pool.Budget{Workers: 1, MaxStreams: streamSlots}}),
	}
	factory := func(string) (map[string]*wivi.Device, error) {
		reg := map[string]*wivi.Device{}
		for i, r := range httpReqs {
			for rep := 0; rep < repsFor(r); rep++ {
				d, err := r.Spec.wiviDevice(1)
				if err != nil {
					return nil, err
				}
				reg[replicaName(i, rep)] = d
			}
		}
		return reg, nil
	}
	budget := pool.Budget{Workers: 1, MaxStreams: streamSlots}
	l.srvReg = pool.NewRouter(pool.Options{Budget: budget, Devices: factory})
	l.wireReg = pool.NewRouter(pool.Options{Budget: budget, Devices: factory})
	var err error
	if l.srv, err = serve.New(serve.Config{Pool: l.srvReg}); err != nil {
		l.close()
		return nil, err
	}
	wireSrv, err := serve.New(serve.Config{Pool: l.wireReg})
	if err != nil {
		l.close()
		return nil, err
	}
	for _, rt := range []*pool.Router{l.srvReg, l.wireReg} {
		_, devs, err := rt.Devices(pool.DefaultTenant)
		if err == nil {
			err = nullAll(devs)
		}
		if err != nil {
			l.close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		l.close()
		return nil, err
	}
	l.hs, l.served = &http.Server{Handler: wireSrv}, make(chan struct{})
	go func() {
		defer close(l.served)
		_ = l.hs.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	l.tr = &http.Transport{}
	l.client = &serve.Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: &http.Client{Transport: l.tr}}
	return l, nil
}

func (l *ladder) close() {
	if l.hs != nil {
		l.hs.Close()
		<-l.served
		l.tr.CloseIdleConnections()
	}
	l.eng.Close()
	l.plain.Close()
	l.public.Close()
	l.router.Close()
	if l.srvReg != nil {
		l.srvReg.Close()
	}
	if l.wireReg != nil {
		l.wireReg.Close()
	}
}

func coreMode(m wivi.Mode) core.Mode {
	if m == wivi.Gesture {
		return core.ModeGesture
	}
	return core.ModeTracking
}

// run replays request i once at depth d.
func (l *ladder) run(ctx context.Context, d depth, i, rep int, r reqSpec) (sample, error) {
	k0 := isar.ReadKernelStats()
	var s sample
	var err error
	switch d {
	case depthCompose:
		s, err = l.compose(ctx, i, r)
	case depthPipeline, depthPlain:
		s, err = l.pipeline(ctx, i, r, d == depthPipeline)
	case depthEngine:
		s, err = l.engine(ctx, r)
	case depthPool:
		s, err = l.pool(ctx, r)
	case depthServe:
		s, err = l.serveHTTP(ctx, replicaName(i, rep), r)
	case depthWire:
		s, err = l.wire(ctx, replicaName(i, rep), r)
	}
	s.kernel = kernelNs(k0, isar.ReadKernelStats())
	s.residual = s.wall - s.kernel - s.sim
	return s, err
}

// compose drives the layers below the core device directly, as
// core.Device does, each call in its own span.
func (l *ladder) compose(ctx context.Context, req int, r reqSpec) (sample, error) {
	var s sample
	fe := &tracedFE{rec: l.rec, req: req}
	dev, err := r.Spec.coreDevice(1, func(d *sim.Device) core.FrontEnd { fe.Device = d; return fe })
	if err != nil {
		return s, err
	}
	t0 := l.rec.now()
	nres, err := dev.Null()
	if err != nil {
		return s, err
	}
	l.rec.add("nulling", 0, req, t0, l.rec.now())
	s.nullMs = ms(l.rec.now() - t0)
	s.nullIters = nres.Iterations

	cfg := dev.Config()
	proc := dev.Processor()
	p, boost := nres.P, cfg.Nulling.BoostDB
	n := int(r.Duration / fe.SampleT())
	root := l.rec.open("compose", 0, req)
	fe.parent = root
	span := func(name string, f func() error) error {
		a0 := allocsNow()
		k0 := isar.ReadKernelStats()
		t0 := l.rec.now()
		err := f()
		l.rec.add(name, root, req, t0, l.rec.now())
		if name == "isar" {
			k1 := isar.ReadKernelStats()
			s.allocs += allocsNow() - a0
			s.cov += time.Duration(k1.CovNs - k0.CovNs)
			s.eig += time.Duration(k1.EigNs - k0.EigNs)
			s.spec += time.Duration(k1.SpecNs - k0.SpecNs)
			s.sweeps += k1.EigSweeps - k0.EigSweeps
			s.keyframes += k1.Keyframes - k0.Keyframes
			s.kfrm += k1.Frames - k0.Frames
		}
		return err
	}
	var img *isar.Image
	if !r.Stream {
		perSub, err := fe.Capture(p, boost, 0, n)
		if err != nil {
			return s, err
		}
		var combined []complex128
		if err := span("ofdm", func() (err error) { combined, err = ofdm.AverageSubcarriers(perSub); return }); err != nil {
			return s, err
		}
		if err := span("isar", func() (err error) { img, err = proc.ComputeImageCtx(ctx, combined, 1); return }); err != nil {
			return s, err
		}
	} else {
		st := proc.NewStreamer(isar.StreamConfig{Workers: 1})
		collected := make(chan []isar.Frame, 1)
		go func() {
			var frames []isar.Frame
			for fr := range st.Frames() {
				frames = append(frames, fr)
			}
			collected <- frames
		}()
		var combined []complex128
		capErr := fe.StreamCapture(p, boost, 0, n, min(cfg.StreamChunk, n), func(sub [][]complex128) error {
			old := len(combined)
			if err := span("ofdm", func() (err error) { combined, err = ofdm.AverageSubcarriersAppend(combined, sub); return }); err != nil {
				return err
			}
			return span("isar", func() error { return st.Append(ctx, combined[old:]) })
		})
		st.CloseInput()
		frames := <-collected
		if capErr != nil {
			return s, capErr
		}
		if err := st.Err(); err != nil {
			return s, err
		}
		if err := span("isar", func() error { img = proc.AssembleImage(frames); return nil }); err != nil {
			return s, err
		}
	}
	if r.Mode == wivi.Gesture {
		if err := span("gesture", func() (err error) { _, err = gesture.DecodeImage(img, cfg.Gesture); return }); err != nil {
			return s, err
		}
	}
	l.rec.close(root)
	s.wall = l.rec.get(root).dur()
	s.sim = l.rec.childTime(root, "sim")
	s.ofdm = l.rec.childTime(root, "ofdm")
	s.image = l.rec.childTime(root, "isar")
	s.gesture = l.rec.childTime(root, "gesture")
	s.frames = img.NumFrames()
	s.img = img
	return s, nil
}

// pipeline submits to the internal engine; traced, the core device and
// its radio record spans inside the engine's worker.
func (l *ladder) pipeline(ctx context.Context, req int, r reqSpec, traced bool) (sample, error) {
	var s sample
	var wrap func(*sim.Device) core.FrontEnd
	fe := &tracedFE{rec: l.rec, req: req}
	if traced {
		wrap = func(d *sim.Device) core.FrontEnd { fe.Device = d; return fe }
	}
	dev, err := r.Spec.coreDevice(1, wrap)
	if err != nil {
		return s, err
	}
	if _, err := dev.Null(); err != nil {
		return s, err
	}
	eng := l.plain
	var tracker interface {
		pipeline.Tracker
		pipeline.StreamTracker
	} = dev
	tt := &tracedTracker{dev: dev, fe: fe, rec: l.rec, req: req, done: make(chan int, 1)}
	root := 0
	if traced {
		eng, tracker = l.eng, tt
		root = l.rec.open("pipeline", 0, req)
		tt.parent = root
	}
	t0 := l.rec.now()
	if !r.Stream {
		h, err := eng.Submit(ctx, pipeline.Request{Tracker: tracker, Mode: coreMode(r.Mode), Duration: r.Duration})
		if err != nil {
			return s, err
		}
		res := h.Wait(ctx)
		if res.Err != nil {
			return s, res.Err
		}
		s.img = res.Image
	} else {
		h, err := eng.SubmitStream(ctx, pipeline.StreamRequest{Tracker: tracker, Mode: coreMode(r.Mode), Duration: r.Duration})
		if err != nil {
			return s, err
		}
		st, err := h.Stream(ctx)
		if err != nil {
			return s, err
		}
		for {
			if _, ok := st.Next(); !ok {
				break
			}
		}
		obs, err := st.Observation()
		if err != nil {
			return s, err
		}
		s.img = obs.Image
	}
	s.wall = l.rec.now() - t0
	if traced {
		l.rec.close(root)
		coreID := <-tt.done
		s.wall = l.rec.get(root).dur()
		s.pipeSelf = l.rec.self(root)
		s.core = l.rec.get(coreID).dur()
		s.sim = l.rec.childTime(coreID, "sim")
	}
	return s, nil
}

// publicReq is r on a fresh, nulled replica with one frame worker.
func publicReq(r reqSpec) (wivi.Request, error) {
	d, err := r.Spec.wiviDevice(1)
	if err == nil {
		_, err = d.Null()
	}
	return wivi.Request{Device: d, Duration: r.Duration, Mode: r.Mode, Stream: r.Stream}, err
}

// handle is what the engine and pool depths get back from Submit:
// *wivi.Handle and *pool.Handle.
type handle interface {
	Stream(context.Context) (*wivi.TrackStream, error)
	Wait(context.Context) (*wivi.Result, error)
}

// drain waits for a request's result, consuming its frames if streamed.
func drain(ctx context.Context, h handle, streamed bool) (*wivi.Result, error) {
	if streamed {
		ts, err := h.Stream(ctx)
		if err != nil {
			return nil, err
		}
		for range ts.Frames() {
		}
	}
	return h.Wait(ctx)
}

// trackingImage reads the image a public tracking result wraps, so the
// replay can check the image it composes from internal calls against the
// public engine's bit for bit. wivi keeps the field unexported; nil
// means it has moved, which fails that check.
func trackingImage(r *wivi.TrackingResult) *isar.Image {
	f := reflect.ValueOf(r).Elem().FieldByName("img")
	if !f.IsValid() || f.Type() != reflect.TypeOf((*isar.Image)(nil)) {
		return nil
	}
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().Interface().(*isar.Image)
}

func (l *ladder) engine(ctx context.Context, r reqSpec) (sample, error) {
	var s sample
	req, err := publicReq(r)
	if err != nil {
		return s, err
	}
	t0 := l.rec.now()
	h, err := l.public.Submit(ctx, req)
	var res *wivi.Result
	if err == nil {
		res, err = drain(ctx, h, r.Stream)
	}
	s.wall = l.rec.now() - t0
	if err == nil {
		s.img = trackingImage(res.Tracking)
	}
	return s, err
}

func (l *ladder) pool(ctx context.Context, r reqSpec) (sample, error) {
	var s sample
	req, err := publicReq(r)
	if err != nil {
		return s, err
	}
	t0 := l.rec.now()
	h, err := l.router.Submit(ctx, pool.DefaultTenant, req)
	s.submit = l.rec.now() - t0
	var res *wivi.Result
	if err == nil {
		res, err = drain(ctx, h, r.Stream)
	}
	s.wall = l.rec.now() - t0
	if err == nil {
		s.img = trackingImage(res.Tracking)
	}
	return s, err
}

// recordingWriter is an in-memory http.ResponseWriter that counts
// flushes, so ServeHTTP can be timed without a socket.
type recordingWriter struct {
	header  http.Header
	status  int
	buf     bytes.Buffer
	flushes int
}

func (w *recordingWriter) Header() http.Header         { return w.header }
func (w *recordingWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }
func (w *recordingWriter) WriteHeader(code int)        { w.status = code }
func (w *recordingWriter) Flush()                      { w.flushes++ }

func trackBody(name string, r reqSpec) serve.TrackRequest {
	return serve.TrackRequest{Device: name, Mode: r.modeString(), DurationS: r.Duration, Stream: r.Stream}
}

// serveHTTP times the handler in-process, then times the client's
// decoding of the recorded response bytes.
func (l *ladder) serveHTTP(ctx context.Context, name string, r reqSpec) (sample, error) {
	var s sample
	body, err := json.Marshal(trackBody(name, r))
	if err != nil {
		return s, err
	}
	hr := httptest.NewRequest(http.MethodPost, "/v1/track", bytes.NewReader(body)).WithContext(ctx)
	w := &recordingWriter{header: http.Header{}, status: http.StatusOK}
	t0 := l.rec.now()
	l.srv.ServeHTTP(w, hr)
	s.wall = l.rec.now() - t0
	if w.status != http.StatusOK {
		return s, fmt.Errorf("serve depth: HTTP %d: %s", w.status, w.buf.String())
	}
	s.bytes, s.flushes = w.buf.Len(), w.flushes
	c := &serve.Client{BaseURL: "http://recorded", HTTPClient: &http.Client{Transport: replayTransport(w.buf.Bytes())}}
	t1 := l.rec.now()
	s.frames, err = consume(ctx, c, trackBody(name, r))
	s.decode = l.rec.now() - t1
	return s, err
}

// replayTransport answers every request with the recorded body.
type replayTransport []byte

func (b replayTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(b)), Request: req}, nil
}

// consume sends one request through c and decodes the whole response,
// returning the frame count.
func consume(ctx context.Context, c *serve.Client, req serve.TrackRequest) (int, error) {
	if !req.Stream {
		res, err := c.Track(ctx, req)
		if err != nil {
			return 0, err
		}
		return res.NumFrames, nil
	}
	cs, err := c.TrackStream(ctx, req)
	if err != nil {
		return 0, err
	}
	defer cs.Close()
	n := 0
	for {
		if _, ok := cs.Next(); !ok {
			break
		}
		n++
	}
	return n, cs.Err()
}

func (l *ladder) wire(ctx context.Context, name string, r reqSpec) (sample, error) {
	var s sample
	t0 := l.rec.now()
	n, err := consume(ctx, l.client, trackBody(name, r))
	s.wall = l.rec.now() - t0
	s.frames = n
	return s, err
}

// perRequest is one request's medians at every depth.
type perRequest struct {
	r   reqSpec
	med [numDepths]sample
}

// medianSample takes, field by field, the median of a depth's reps.
func medianSample(xs []sample) sample {
	m := xs[0]
	pick := func(get func(sample) time.Duration) time.Duration {
		v := make([]float64, len(xs))
		for i, x := range xs {
			v[i] = float64(get(x))
		}
		return time.Duration(median(v))
	}
	m.wall = pick(func(s sample) time.Duration { return s.wall })
	m.residual = pick(func(s sample) time.Duration { return s.residual })
	m.kernel = pick(func(s sample) time.Duration { return s.kernel })
	m.sim = pick(func(s sample) time.Duration { return s.sim })
	m.ofdm = pick(func(s sample) time.Duration { return s.ofdm })
	m.image = pick(func(s sample) time.Duration { return s.image })
	m.gesture = pick(func(s sample) time.Duration { return s.gesture })
	m.cov = pick(func(s sample) time.Duration { return s.cov })
	m.eig = pick(func(s sample) time.Duration { return s.eig })
	m.spec = pick(func(s sample) time.Duration { return s.spec })
	m.core = pick(func(s sample) time.Duration { return s.core })
	m.pipeSelf = pick(func(s sample) time.Duration { return s.pipeSelf })
	m.submit = pick(func(s sample) time.Duration { return s.submit })
	m.decode = pick(func(s sample) time.Duration { return s.decode })
	m.nullMs = float64(pick(func(s sample) time.Duration { return time.Duration(s.nullMs * 1e6) })) / 1e6
	return m
}

// replay runs the ladder over reqs from the bottom up to depth top, one
// request at a time, until budget is spent (the first request always
// completes). At every repetition it checks that the image composed at
// the bottom is DeepEqual to the one each engine depth returns: the
// internal pipeline.Engine and, through the public wivi.NewDevice
// builder, the wivi.Engine and the pool.Router.
func (l *ladder) replay(ctx context.Context, reqs []reqSpec, top depth, budget time.Duration, t *tally) []perRequest {
	var out []perRequest
	start := l.rec.now()
	for i, r := range reqs {
		if i > 0 && l.rec.now()-start > budget {
			break
		}
		// Repetitions are the outer loop, so drift over the replay
		// touches every depth alike instead of biasing their differences.
		var reps [numDepths][]sample
		ok := true
		for rep := 0; rep < repsFor(r) && ok; rep++ {
			for d := depthCompose; d <= top && ok; d++ {
				s, err := l.run(ctx, d, i, rep, r)
				if ok = t.op(err); !ok {
					break
				}
				switch d {
				case depthPipeline, depthPlain, depthEngine, depthPool:
					composed := reps[depthCompose][rep].img
					t.check(s.img != nil && reflect.DeepEqual(composed, s.img), "request %d: composed image differs from the %s depth's", i, d)
				case depthServe, depthWire:
					t.check(s.frames == expectedFrames(r.Duration), "request %d: %d frames over HTTP, want %d", i, s.frames, expectedFrames(r.Duration))
				}
				reps[d] = append(reps[d], s)
			}
		}
		if !ok {
			continue
		}
		pr := perRequest{r: r}
		for d := depthCompose; d <= top; d++ {
			pr.med[d] = medianSample(reps[d])
		}
		out = append(out, pr)
	}
	return out
}

// layerMetrics reports the per-layer figures of a replay up to the
// engine depth. top is the depth whose wall time the workload's users
// see; the unattributed share is what the layers on the path to it
// leave unexplained.
func layerMetrics(m *metricSet, reqs []perRequest, top depth, hasGesture bool) {
	var frames int
	var capS float64
	var sim, ofdmT, image, cov, eig, spec, gest, coreSelf, pipeSelf, topWall, traced, plain time.Duration
	var sweeps, keyframes, kfrm int64
	var allocs uint64
	var gestN int
	var nullMs, nullIters float64
	for _, pr := range reqs {
		d := pr.med
		c := d[depthCompose]
		frames += c.frames
		capS += pr.r.Duration
		sim += c.sim
		ofdmT += c.ofdm
		image += c.image
		cov += c.cov
		eig += c.eig
		spec += c.spec
		sweeps += c.sweeps
		keyframes += c.keyframes
		kfrm += c.kfrm
		allocs += c.allocs
		nullMs += c.nullMs
		nullIters += float64(c.nullIters)
		if pr.r.Mode == wivi.Gesture {
			gest += c.gesture
			gestN++
		}
		p := d[depthPipeline]
		coreSelf += (p.core - p.sim - p.kernel) - (c.wall - c.sim - c.kernel)
		pipeSelf += p.pipeSelf
		topWall += d[top].wall
		traced += p.wall
		plain += d[depthPlain].wall
	}
	n := float64(len(reqs))
	perFrame := func(t time.Duration) float64 { return us(t) / float64(frames) }
	perReq := func(t time.Duration) float64 { return us(t) / n }
	m.set("sim.capture_ms_per_s", "ms/s", ms(sim)/capS)
	m.set("sim.capture_us_per_frame", "us", perFrame(sim))
	m.set("nulling.null_ms", "ms", nullMs/n)
	m.set("nulling.iterations", "count", nullIters/n)
	m.set("ofdm.combine_us_per_frame", "us", perFrame(ofdmT))
	m.set("isar.image_us_per_frame", "us", perFrame(image))
	m.set("isar.cov_us_per_frame", "us", perFrame(cov))
	m.set("isar.eig_us_per_frame", "us", perFrame(eig))
	m.set("isar.spectrum_us_per_frame", "us", perFrame(spec))
	m.set("isar.assemble_us_per_frame", "us", perFrame(image-cov-eig-spec))
	m.set("isar.eig_sweeps_per_frame", "count", float64(sweeps)/float64(kfrm))
	m.set("isar.keyframe_share", "ratio", float64(keyframes)/float64(kfrm))
	m.set("isar.allocs_per_frame", "count", float64(allocs)/float64(frames))
	m.set("core.self_us_per_req", "us", perReq(coreSelf))
	m.set("pipeline.self_us_per_req", "us", perReq(pipeSelf))

	attributed := sim + ofdmT + image + gest + coreSelf + pipeSelf
	if top > depthEngine {
		u := upperCosts(reqs)
		attributed += u.pool
		if top >= depthServe {
			attributed += u.serve
		}
		if top >= depthWire {
			attributed += u.decode + u.wire
		}
	}
	m.set("trace.unattributed_share", "ratio", 1-float64(attributed)/float64(topWall))
	m.set("trace.overhead_share", "ratio", float64(traced)/float64(plain)-1)
	if hasGesture {
		m.set("gesture.decode_us_per_req", "us", us(gest)/float64(gestN))
	}
}

// upperCost sums, over a replay that reached the wire depth, the self
// times and output sizes of the layers above the engine.
type upperCost struct {
	pool, submit, serve, decode, wire time.Duration
	bytes, flushes, frames            int
}

func upperCosts(reqs []perRequest) upperCost {
	var u upperCost
	for _, pr := range reqs {
		d := pr.med
		u.pool += d[depthPool].residual - d[depthEngine].residual
		u.submit += d[depthPool].submit
		u.serve += d[depthServe].residual - d[depthPool].residual
		u.decode += d[depthServe].decode
		u.wire += d[depthWire].residual - d[depthServe].residual - d[depthServe].decode
		u.bytes += d[depthServe].bytes
		u.flushes += d[depthServe].flushes
		u.frames += d[depthCompose].frames
	}
	return u
}

// upperLayerMetrics reports the pool, serve, client and wire figures of
// a replay that reached the wire depth.
func upperLayerMetrics(m *metricSet, reqs []perRequest) {
	u := upperCosts(reqs)
	n := float64(len(reqs))
	m.set("pool.submit_us", "us", us(u.submit)/n)
	m.set("pool.self_us_per_req", "us", us(u.pool)/n)
	m.set("serve.self_us_per_req", "us", us(u.serve)/n)
	m.set("serve.bytes_per_frame", "B", float64(u.bytes)/float64(u.frames))
	m.set("serve.flushes_per_req", "count", float64(u.flushes)/n)
	m.set("client.decode_us_per_frame", "us", us(u.decode)/float64(u.frames))
	m.set("wire.us_per_req", "us", us(u.wire)/n)
}

// decodeCost times gesture.DecodeImage on composed images, for
// workloads that send no gesture requests: what the decode layer would
// cost on their images.
func decodeCost(reqs []perRequest) float64 {
	var total time.Duration
	cfg := gesture.DefaultDecoderConfig(float64(isar.DefaultConfig().Hop) * sim.DefaultCalibration().SampleT)
	clk := newPhaseClock()
	for _, pr := range reqs {
		t0 := clk.now()
		// Only the time matters: a tracking image carries no message.
		_, _ = gesture.DecodeImage(pr.med[depthCompose].img, cfg)
		total += clk.now() - t0
	}
	return us(total) / float64(len(reqs))
}
