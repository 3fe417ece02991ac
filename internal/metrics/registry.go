package metrics

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is the serving layer's one metrics registry: named counter,
// gauge and histogram families, each with an optional label set, rendered
// through a PromWriter in registration order with every family's series
// sorted by label values — so two scrapes of an idle process are
// byte-identical. Register families at construction; resolve a family's
// series with With and keep the returned handle wherever the labels are
// fixed, so a hot path never repeats the lookup. All methods are safe for
// concurrent use.
type Registry struct {
	mu       sync.Mutex
	names    map[string]bool
	families []interface{ write(p *PromWriter) }
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// Counter registers a counter family with the given label names.
func (r *Registry) Counter(name, help string, labels ...string) *Family[Value] {
	return register[Value](r, name, help, "counter", nil, labels)
}

// Gauge registers a gauge family with the given label names.
func (r *Registry) Gauge(name, help string, labels ...string) *Family[Value] {
	return register[Value](r, name, help, "gauge", nil, labels)
}

// Histogram registers a histogram family whose series count observations
// into the ascending bucket upper bounds plus an overflow bucket.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Family[Histogram] {
	return register[Histogram](r, name, help, "histogram", bounds, labels)
}

func register[S Value | Histogram](r *Registry, name, help, typ string, bounds []float64, labels []string) *Family[S] {
	f := &Family[S]{name: name, help: help, typ: typ, labels: labels, bounds: bounds,
		series: make(map[string]*series[S])}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.names[name] {
		panic("metrics: family registered twice: " + name)
	}
	r.names[name] = true
	r.families = append(r.families, f)
	if len(labels) == 0 {
		f.With() // an unlabelled family is one series, rendered from registration on
	}
	return f
}

// Write renders every family into p. A family with no series yet (a
// labelled family nothing has touched) renders nothing, not even its
// HELP/TYPE header.
func (r *Registry) Write(p *PromWriter) {
	r.mu.Lock()
	families := slices.Clone(r.families)
	r.mu.Unlock()
	for _, f := range families {
		f.write(p)
	}
}

// Value is one integer series of a counter or gauge family. Its methods
// are single atomic operations.
type Value struct{ v atomic.Int64 }

// Add adds d (negative only for gauges).
func (c *Value) Add(d int64) { c.v.Add(d) }

// Set stores v: a gauge read at scrape time, or a counter mirrored from a
// count kept elsewhere.
func (c *Value) Set(v int64) { c.v.Store(v) }

// Get returns the current value.
func (c *Value) Get() int64 { return c.v.Load() }

// Histogram is one series of a histogram family.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []uint64 // counts[i]: observations in (bounds[i-1], bounds[i]]; the last is the overflow bucket
	sum    float64
}

// Observe records one observation.
func (h *Histogram) Observe(x float64) {
	i := sort.SearchFloat64s(h.bounds, x)
	h.mu.Lock()
	h.counts[i]++
	h.sum += x
	h.mu.Unlock()
}

// Family is one registered metric family; With resolves its series.
type Family[S Value | Histogram] struct {
	name, help, typ string
	labels          []string
	bounds          []float64

	mu     sync.Mutex
	series map[string]*series[S]
}

type series[S any] struct {
	values []string
	s      S
}

// With returns the series for the given label values (one per label name,
// in registration order), creating it on first use. A created series is
// rendered from then on, zero-valued or not.
func (f *Family[S]) With(values ...string) *S {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	var buf [128]byte
	key := buf[:0]
	for _, v := range values {
		key = append(append(key, v...), 0xff)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	e := f.series[string(key)]
	if e == nil {
		e = &series[S]{values: slices.Clone(values)}
		if h, ok := any(&e.s).(*Histogram); ok {
			h.bounds = f.bounds
			h.counts = make([]uint64, len(f.bounds)+1)
		}
		f.series[string(key)] = e
	}
	return &e.s
}

func (f *Family[S]) write(p *PromWriter) {
	f.mu.Lock()
	all := make([]*series[S], 0, len(f.series))
	for _, e := range f.series {
		all = append(all, e)
	}
	f.mu.Unlock()
	slices.SortFunc(all, func(a, b *series[S]) int { return slices.Compare(a.values, b.values) })
	for _, e := range all {
		labels := make([]string, 0, 2*len(f.labels))
		for i, l := range f.labels {
			labels = append(labels, l, e.values[i])
		}
		switch s := any(&e.s).(type) {
		case *Value:
			if f.typ == "counter" {
				p.Counter(f.name, f.help, float64(s.Get()), labels...)
			} else {
				p.Gauge(f.name, f.help, float64(s.Get()), labels...)
			}
		case *Histogram:
			s.mu.Lock()
			p.Histogram(f.name, f.help, s.bounds, s.counts, s.sum, labels...)
			s.mu.Unlock()
		}
	}
}
