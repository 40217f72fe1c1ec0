package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Spans of one replayed request share Req; Parent is the ID of the span
// whose call caused this one (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once, when the
// traced run ends. It is safe for concurrent use: engine workers record
// front-end spans while the replay goroutine records the enclosing ones.
type recorder struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
}

//wivi:wallclock the recorder timestamps spans against the real clock by design
func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// now is the recorder's clock: time since its origin.
//
//wivi:wallclock span timestamps are wall-clock measurements by design
func (r *recorder) now() time.Duration { return time.Since(r.origin) }

// add records a finished span and returns its ID.
func (r *recorder) add(name string, parent, req int, start, end time.Duration) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

// open reserves a span ID for a call whose children are recorded before
// it ends; close stamps its end.
func (r *recorder) open(name string, parent, req int) int {
	t := r.now()
	return r.add(name, parent, req, t, t)
}

func (r *recorder) close(id int) {
	t := r.now()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// get returns span id.
func (r *recorder) get(id int) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1]
}

// children returns the spans whose parent is id.
func (r *recorder) children(id int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// childTime sums the durations of id's children named name.
func (r *recorder) childTime(id int, name string) time.Duration {
	var t time.Duration
	for _, c := range r.children(id) {
		if c.Name == name {
			t += c.dur()
		}
	}
	return t
}

// write dumps every span as JSON to path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// self is span id's self time: its duration minus the part of its
// interval its child spans cover.
func (r *recorder) self(id int) time.Duration { return selfTime(r.get(id), r.children(id)) }

// selfTime is parent's duration minus the part of its interval that its
// children cover. Overlapping children count once, and a child's time
// outside the parent's interval is not subtracted.
func selfTime(parent span, children []span) time.Duration {
	return parent.dur() - covered(parent, children)
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}
