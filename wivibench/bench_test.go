package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// TestPercentileTailRule checks the nearest-rank value and the rule that
// a named tail needs at least ten samples beyond it.
func TestPercentileTailRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{100, 90, 90, true},   // exactly 10 beyond
		{99, 90, 90, false},   // 9 beyond
		{200, 95, 190, true},  // 10 beyond
		{199, 95, 190, false}, // 9 beyond
		{1000, 99, 990, true},
		{999, 99, 990, false},
		{5, 50, 3, true}, // the median is exempt
		{1, 90, 1, false},
	}
	for _, c := range cases {
		v, ok := percentile(seq(c.n), c.q)
		if v != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %g) = %v, %v; want %v, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
	xs := []float64{3, 1, 2}
	if percentile(xs, 50); !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

// TestMetricNameCharset checks that only [A-Za-z0-9_.-] names, finite
// values and first settings are accepted.
func TestMetricNameCharset(t *testing.T) {
	good := []string{"setup_s", "isar.eig_us_per_frame", "gen.late_p90_ms", "a-b.c_9", "9lives"}
	bad := []string{"", "_lead", ".lead", "has space", "slash/name", "ünicode", "x{y}",
		"a2345678901234567890123456789012345678901234567890123456789012345"}
	for _, n := range good {
		s := newMetricSet()
		s.set(n, "ms", 1)
		if len(s.errs) != 0 {
			t.Errorf("rejected good name %q: %v", n, s.errs)
		}
	}
	for _, n := range bad {
		s := newMetricSet()
		s.set(n, "ms", 1)
		if len(s.errs) == 0 {
			t.Errorf("accepted bad name %q", n)
		}
	}
	s := newMetricSet()
	s.set("x", "ms", 1)
	s.set("x", "ms", 2)
	if len(s.errs) != 1 {
		t.Errorf("duplicate metric not reported: %v", s.errs)
	}
	s = newMetricSet()
	s.set("nan", "ms", median(nil))
	if len(s.errs) != 1 {
		t.Errorf("non-finite value not reported: %v", s.errs)
	}
}

// TestScheduleDeterminism checks that the open-loop schedule and the
// generated requests depend on the seed alone.
func TestScheduleDeterminism(t *testing.T) {
	span := 20 * time.Second
	a, b := serveShortSchedule(7, span), serveShortSchedule(7, span)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different serve-short schedules")
	}
	if reflect.DeepEqual(a, serveShortSchedule(8, span)) {
		t.Fatal("different seeds, identical serve-short schedules")
	}
	// Exactly rate × span arrivals, due times ascending inside the span.
	if want := int(serveShortRate * span.Seconds()); len(a) != want {
		t.Errorf("%d arrivals in %v, want %d", len(a), span, want)
	}
	streams := 0
	for i, r := range a {
		if r.Due < 0 || r.Due >= span || (i > 0 && r.Due < a[i-1].Due) {
			t.Fatalf("arrival %d due at %v", i, r.Due)
		}
		if r.Duration < 0.5 || r.Duration >= 1 {
			t.Fatalf("arrival %d lasts %v s", i, r.Duration)
		}
		if n := expectedFrames(r.Duration); n < 3 || n > 9 {
			t.Fatalf("arrival %d yields %d frames", i, n)
		}
		if r.Stream {
			streams++
		}
	}
	if streams == 0 || streams == len(a) {
		t.Errorf("%d of %d requests streamed; want a mix", streams, len(a))
	}
	for _, name := range workloadNames() {
		w := workloads[name]
		if !reflect.DeepEqual(w.replay(3, span), w.replay(3, span)) {
			t.Errorf("%s: same seed, different replay lists", name)
		}
	}
	if !reflect.DeepEqual(offlineRequest(3, 1, 5), offlineRequest(3, 1, 5)) || reflect.DeepEqual(offlineRequest(3, 0, 3).Spec, offlineRequest(4, 0, 3).Spec) {
		t.Error("offline-track requests do not follow the seed")
	}
}

// TestSelfTimes checks span self time on synthetic trees: children are
// subtracted once even when they overlap, and only within the parent.
func TestSelfTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "request", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "sim", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "isar", Start: ms(40), End: ms(90)},
		{ID: 4, Parent: 3, Name: "eig", Start: ms(45), End: ms(60)},
		{ID: 5, Parent: 3, Name: "eig", Start: ms(55), End: ms(70)}, // overlaps 4
		{ID: 6, Parent: 3, Name: "late", Start: ms(85), End: ms(120)},
		{ID: 7, Name: "lone", Start: ms(0), End: ms(5)},
	}
	got := map[int]time.Duration{}
	for _, p := range spans {
		var kids []span
		for _, c := range spans {
			if c.Parent == p.ID {
				kids = append(kids, c)
			}
		}
		got[p.ID] = selfTime(p, kids)
	}
	want := map[int]time.Duration{
		1: ms(100 - 20 - 50),
		2: ms(20),
		3: ms(50 - 25 - 5), // union 45–70, plus 85–90 clipped
		4: ms(15),
		5: ms(15),
		6: ms(35),
		7: ms(5),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times = %v, want %v", got, want)
	}
}

// TestRecorderWrite checks that spans are kept in memory and written out
// as JSON with their parent links.
func TestRecorderWrite(t *testing.T) {
	r := newRecorder()
	root := r.open("pipeline", 0, 1)
	r.add("sim", root, 1, r.now(), r.now())
	r.close(root)
	path := t.TempDir() + "/spans.json"
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[1].Parent != root || spans[0].End < spans[0].Start {
		t.Errorf("written spans %+v", spans)
	}
	if self := r.self(root); self != spans[0].End-spans[0].Start-(spans[1].End-spans[1].Start) {
		t.Errorf("self time of the root %v, spans %+v", self, spans)
	}
}

// TestExpectedFrames pins the frame counts the workloads are built on.
func TestExpectedFrames(t *testing.T) {
	for dur, want := range map[float64]int{8: 97, 1: 9, 0.5: 3, 0.3: 0} {
		if got := expectedFrames(dur); got != want {
			t.Errorf("expectedFrames(%v) = %d, want %d", dur, got, want)
		}
	}
}
