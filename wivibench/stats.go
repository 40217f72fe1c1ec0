package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minTail is the number of samples a named tail percentile must have
// beyond it before it is reported as that percentile.
const minTail = 10

// percentile returns the nearest-rank q-th percentile (0 < q < 100) of xs
// and reports whether at least minTail samples lie strictly beyond it.
// The median (q = 50) is exempt from the tail rule. xs is not modified.
func percentile(xs []float64, q float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	beyond := len(s) - rank
	return s[rank-1], q == 50 || beyond >= minTail
}

// median is the 50th nearest-rank percentile.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// metricName is the charset and length every metric name must satisfy.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's figures and rejects malformed ones.
type metricSet struct {
	m    map[string]metric
	errs []string
}

func newMetricSet() *metricSet { return &metricSet{m: map[string]metric{}} }

// set records one figure. A bad name, a duplicate or a non-finite value
// is remembered as an error, and the result refuses to print.
func (s *metricSet) set(name, unit string, v float64) {
	switch {
	case !metricName.MatchString(name):
		s.errs = append(s.errs, fmt.Sprintf("metric name %q outside [A-Za-z0-9_.-]", name))
	case math.IsNaN(v) || math.IsInf(v, 0):
		s.errs = append(s.errs, fmt.Sprintf("metric %s is %v", name, v))
	default:
		if _, dup := s.m[name]; dup {
			s.errs = append(s.errs, fmt.Sprintf("metric %s set twice", name))
		}
		s.m[name] = metric{Value: v, Unit: unit}
	}
}

// tail records the q-th percentile of xs (in ms) under name, warning on stderr
// when fewer than minTail samples lie beyond it.
func (s *metricSet) tail(name string, xs []float64, q float64) {
	v, ok := percentile(xs, q)
	if !ok {
		logf("warning: %s has %d samples, fewer than %d beyond p%g", name, len(xs), minTail, q)
	}
	s.set(name, "ms", v)
}
