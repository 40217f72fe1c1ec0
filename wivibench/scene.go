package main

import (
	"context"
	"fmt"

	"wivi"
	"wivi/internal/core"
	"wivi/internal/motion"
	"wivi/internal/rf"
	"wivi/internal/sim"
)

// gestureDistance is how far behind the wall gesture senders stand: the
// paper's 3 m operating point, well inside its ≤ 5 m full-accuracy range.
const gestureDistance = 3

// sceneSpec is everything needed to build a device, so that any depth of
// the stack can be given an identically seeded replica: same scene, same
// device noise, hence bit-identical captures for the same call sequence.
type sceneSpec struct {
	Seed    int64
	Walkers int
	// WalkS is how long each walker moves; it must cover the longest
	// capture, since every capture starts at scene time 0.
	WalkS float64
	// Gesture is the message a gesture sender transmits (nil: none).
	Gesture []wivi.Bit
}

// wiviDevice builds the public-API device for the spec. frameWorkers 0
// keeps the default fan-out.
func (s sceneSpec) wiviDevice(frameWorkers int) (*wivi.Device, error) {
	sc := wivi.NewScene(wivi.SceneOptions{Seed: s.Seed})
	for i := 0; i < s.Walkers; i++ {
		if err := sc.AddWalker(s.WalkS); err != nil {
			return nil, err
		}
	}
	if s.Gesture != nil {
		if _, err := sc.AddGestureSender(wivi.GestureMessage{Bits: s.Gesture, Distance: gestureDistance}); err != nil {
			return nil, err
		}
	}
	return wivi.NewDevice(sc, wivi.DeviceOptions{FrameWorkers: frameWorkers})
}

// gestureDuration is the capture length a gesture sender's message needs
// (what wivi.Scene.AddGestureSender reports for it).
func gestureDuration(bits int) float64 {
	return motion.MessageDuration(bits, motion.DefaultGestureParams(), 1.5) + 1
}

// coreDevice builds the same device as wiviDevice from the internal
// packages, with the front end optionally wrapped so that every
// capture is timed from outside. It mirrors wivi.NewScene/NewDevice call
// for call; the traced run checks the images it yields against the
// engine's, so a drift here fails the run instead of skewing it.
func (s sceneSpec) coreDevice(frameWorkers int, wrap func(*sim.Device) core.FrontEnd) (*core.Device, error) {
	sc := sim.NewScene(sim.SceneConfig{Seed: s.Seed, Wall: rf.FreeSpace})
	for i := 0; i < s.Walkers; i++ {
		if _, err := sc.AddWalker(s.WalkS); err != nil {
			return nil, err
		}
	}
	if s.Gesture != nil {
		bits := make([]motion.Bit, len(s.Gesture))
		for i, b := range s.Gesture {
			bits[i] = motion.Bit(b)
		}
		if _, err := sc.AddGestureSubject(gestureDistance, bits, motion.DefaultGestureParams(), 0, 1.5); err != nil {
			return nil, err
		}
	}
	fe, err := sim.NewDevice(sc, sim.DefaultCalibration(), sim.DeviceConfig{Seed: s.Seed})
	if err != nil {
		return nil, err
	}
	var front core.FrontEnd = fe
	if wrap != nil {
		front = wrap(fe)
	}
	cfg := core.DefaultConfig(front)
	cfg.FrameWorkers = frameWorkers
	return core.New(front, cfg)
}

// bitsString renders a message as "0101".
func bitsString(bits []wivi.Bit) string {
	out := make([]byte, len(bits))
	for i, b := range bits {
		out[i] = byte('0' + b)
	}
	return string(out)
}

// nullAll runs the nulling procedure on every device.
func nullAll(devs map[string]*wivi.Device) error {
	for name, d := range devs {
		if _, err := d.Null(); err != nil {
			return fmt.Errorf("nulling %s: %w", name, err)
		}
	}
	return nil
}

// tracedFE is a simulated radio whose captures are recorded as "sim"
// spans. Streamed captures record one span per synthesized chunk, so the
// consumer's time between chunks is not charged to the radio.
type tracedFE struct {
	*sim.Device
	rec         *recorder
	parent, req int
}

// Capture implements core.FrontEnd.
func (t *tracedFE) Capture(p []complex128, boostDB float64, startT float64, n int) ([][]complex128, error) {
	start := t.rec.now()
	out, err := t.Device.Capture(p, boostDB, startT, n)
	t.rec.add("sim", t.parent, t.req, start, t.rec.now())
	return out, err
}

// StreamCapture implements core.StreamFrontEnd.
func (t *tracedFE) StreamCapture(p []complex128, boostDB float64, startT float64, total, chunk int, emit func([][]complex128) error) error {
	start := t.rec.now()
	err := t.Device.StreamCapture(p, boostDB, startT, total, chunk, func(sub [][]complex128) error {
		t.rec.add("sim", t.parent, t.req, start, t.rec.now())
		err := emit(sub)
		start = t.rec.now()
		return err
	})
	t.rec.add("sim", t.parent, t.req, start, t.rec.now())
	return err
}

// tracedTracker records each core.Device call the engine makes as a
// "core" span, with the front end's spans as its children.
type tracedTracker struct {
	dev         *core.Device
	fe          *tracedFE
	rec         *recorder
	parent, req int
	done        chan int // receives the core span ID once it has ended
}

// Observe implements pipeline.Tracker.
func (t *tracedTracker) Observe(ctx context.Context, req core.TrackRequest) (*core.Observation, error) {
	id := t.rec.open("core", t.parent, t.req)
	t.fe.parent = id
	obs, err := t.dev.Observe(ctx, req)
	t.rec.close(id)
	t.done <- id
	return obs, err
}

// ObserveStream implements pipeline.StreamTracker. The stream outlives
// the call, so its span closes when the stream is done.
func (t *tracedTracker) ObserveStream(ctx context.Context, req core.TrackRequest) (*core.Stream, error) {
	id := t.rec.open("core", t.parent, t.req)
	t.fe.parent = id
	st, err := t.dev.ObserveStream(ctx, req)
	if err != nil {
		t.rec.close(id)
		t.done <- id
		return nil, err
	}
	go func() {
		<-st.Done()
		t.rec.close(id)
		t.done <- id
	}()
	return st, nil
}
