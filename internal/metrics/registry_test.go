package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	p := NewPromWriter()
	r.Write(p)
	return p.String()
}

// TestRegistryOrder pins the exposition order: families in registration
// order, series within a family sorted by label values, unlabelled series
// rendered from registration (zero included), and a labelled family that
// nothing has touched omitted entirely.
func TestRegistryOrder(t *testing.T) {
	r := NewRegistry()
	reqs := r.Counter("app_requests_total", "Requests.", "route", "code")
	r.Gauge("app_depth", "Depth.").With().Set(3)
	r.Counter("app_unused_total", "Never touched.", "kind")
	lat := r.Histogram("app_seconds", "Latency.", []float64{0.1, 1}, "route")
	r.Counter("app_zero_total", "Zero.")

	reqs.With("/b", "200").Add(2)
	reqs.With("/a", "500").Add(1)
	reqs.With("/a", "200").Add(4)
	lat.With("/a").Observe(0.1) // on a bound: counts in that bucket
	lat.With("/a").Observe(5)

	want := `# HELP app_requests_total Requests.
# TYPE app_requests_total counter
app_requests_total{code="200",route="/a"} 4
app_requests_total{code="500",route="/a"} 1
app_requests_total{code="200",route="/b"} 2
# HELP app_depth Depth.
# TYPE app_depth gauge
app_depth 3
# HELP app_seconds Latency.
# TYPE app_seconds histogram
app_seconds_bucket{le="0.1",route="/a"} 1
app_seconds_bucket{le="1",route="/a"} 1
app_seconds_bucket{le="+Inf",route="/a"} 2
app_seconds_sum{route="/a"} 5.1
app_seconds_count{route="/a"} 2
# HELP app_zero_total Zero.
# TYPE app_zero_total counter
app_zero_total 0
`
	if got := render(r); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	c := r.Counter("app_total", "Total.", "kind")
	mustPanic("duplicate family", func() { r.Gauge("app_total", "Again.") })
	mustPanic("missing label value", func() { c.With() })
	mustPanic("extra label value", func() { c.With("a", "b") })
}

// TestRegistryConcurrent hammers every write path — series creation, Add,
// Set, and Observe — while another goroutine renders the exposition, then
// checks that no update was lost. Run under -race it also pins the locking.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	hits := r.Counter("app_hits_total", "Hits.", "worker")
	depth := r.Gauge("app_depth", "Depth.").With()
	lat := r.Histogram("app_seconds", "Latency.", []float64{1, 2}, "route")

	const workers, iters = 4, 500
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				render(r)
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				hits.With(fmt.Sprint(w)).Add(1)
				depth.Add(1)
				depth.Add(-1)
				lat.With("/x").Observe(float64(i % 3))
			}
			depth.Set(7)
		}(w)
	}
	wg.Wait()
	close(stop)
	<-scraped

	out := render(r)
	for w := 0; w < workers; w++ {
		if want := fmt.Sprintf(`app_hits_total{worker="%d"} %d`, w, iters); !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	for _, want := range []string{
		"app_depth 7\n",
		fmt.Sprintf(`app_seconds_count{route="/x"} %d`, workers*iters),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
