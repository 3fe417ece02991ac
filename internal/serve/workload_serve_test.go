package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// Workload threading through /v1/simulate: parameterized service and
// arrival models must run end to end on the same cache/coalesce path, and
// workload-model failures must surface as 422s with code "bad_workload",
// mirroring the bad_engine treatment.

// TestSimulateWorkloadErrors pins the 422 bad_workload mapping for service
// and arrival specs that are well-formed JSON but name no workload model.
func TestSimulateWorkloadErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	unprocessable := []string{
		`{"n":32,"lambda":0.8,"service":"nosuch"}`,                                    // unknown distribution
		`{"n":32,"lambda":0.8,"service":{"dist":"h2","scv":-4}}`,                      // negative SCV
		`{"n":32,"lambda":0.8,"service":{"dist":"h2","scv":0.5}}`,                     // SCV < 1 is Erlang territory
		`{"n":32,"lambda":0.8,"service":{"dist":"erlang","stages":999}}`,              // stages over the phase cap
		`{"n":32,"lambda":0.8,"service":{"dist":"pareto","shape":1.5,"ratio":0.5}}`,   // ratio <= 1
		`{"n":32,"lambda":0,"arrivals":{"kind":"nosuch"}}`,                            // unknown arrival kind
		`{"n":32,"lambda":0,"arrivals":{"kind":"trace","times":[]}}`,                  // empty trace
		`{"n":32,"lambda":0,"arrivals":{"kind":"trace","times":[2,1]}}`,               // unsorted trace
		`{"n":32,"lambda":0,"arrivals":{"kind":"trace","path":"/etc/passwd"}}`,        // server never reads files
		`{"n":32,"lambda":0,"arrivals":{"kind":"mmpp","rates":[-1]}}`,                 // negative rate
		`{"n":32,"lambda":0,"arrivals":{"kind":"mmpp","rates":[0,0],"switch":[1,1]}}`, // no positive phase
		`{"n":32,"lambda":0,"arrivals":{"kind":"mmpp","rates":[1.4,0]}}`,              // missing switch rates
	}
	for _, body := range unprocessable {
		resp, rb := post(t, ts, "/v1/simulate", body)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422: %s", body, resp.StatusCode, rb)
			continue
		}
		var e struct{ Code string }
		if err := json.Unmarshal(rb, &e); err != nil || e.Code != "bad_workload" {
			t.Errorf("%s: error code %q (err %v), want bad_workload", body, e.Code, err)
		}
	}
	// Malformed JSON around the workload fields stays a plain 400.
	badRequests := []string{
		`{"n":32,"lambda":0.8,"service":{"dist":"exp","bogus":1}}`,       // unknown field in a strict object
		`{"n":32,"lambda":0.8,"service":17}`,                             // neither string nor object
		`{"n":32,"lambda":0.5,"arrivals":{"kind":"mmpp","rates":[0.5]}}`, // the process owns the rate
	}
	for _, body := range badRequests {
		resp, rb := post(t, ts, "/v1/simulate", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", body, resp.StatusCode, rb)
		}
	}
}

// TestSimulateRejectsTopLevelStages pins that the Erlang stage count lives
// only inside the service object: a top-level "stages" key is an unknown
// field, a plain 400 bad_request.
func TestSimulateRejectsTopLevelStages(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, rb := post(t, ts, "/v1/simulate", `{"n":32,"lambda":0.7,"service":"erlang","stages":4,"horizon":100,"reps":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, rb)
	}
	var e struct{ Code, Error string }
	if err := json.Unmarshal(rb, &e); err != nil || e.Code != "bad_request" || !strings.Contains(e.Error, `unknown field "stages"`) {
		t.Errorf("body %s (err %v), want code bad_request naming the unknown field \"stages\"", rb, err)
	}
}

// TestSimulateWorkloadEndToEnd runs a bursty non-exponential cell through
// the full serving path: H2 service with MMPP arrivals on the DES engine.
// The report must echo the built models' descriptions, and the two JSON
// spellings of the same workload must collide onto one cache entry (the
// bytes come back identical).
func TestSimulateWorkloadEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body1 := `{"n":32,"lambda":0,"service":"h2","arrivals":{"kind":"mmpp","rates":[1.4,0],"switch":[1,1]},"horizon":400,"warmup":100,"reps":2,"seed":7}`
	resp, rb := post(t, ts, "/v1/simulate", body1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, rb)
	}
	var got experiments.SimReport
	if err := json.Unmarshal(rb, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !strings.HasPrefix(got.Service, "PH(") {
		t.Errorf("report service %q, want the fitted phase-type description", got.Service)
	}
	if got.Arrivals != "mmpp(2 phases)" {
		t.Errorf("report arrivals %q, want mmpp(2 phases)", got.Arrivals)
	}
	if !(got.Sojourn.Mean > 0) || !(got.Load.Mean > 0) {
		t.Errorf("degenerate bursty result: %+v", got)
	}

	// The explicit-SCV spelling is the same workload.
	body2 := `{"reps":2,"seed":7,"warmup":100,"horizon":400,"arrivals":{"switch":[1,1],"rates":[1.4,0],"kind":"mmpp"},"service":{"dist":"h2","scv":4},"lambda":0,"n":32}`
	resp2, rb2 := post(t, ts, "/v1/simulate", body2)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("respelled status %d: %s", resp2.StatusCode, rb2)
	}
	if string(rb) != string(rb2) {
		t.Errorf("two spellings of one workload did not share a cache entry")
	}

	// Trace replay over the wire: inline times, exact arrival count.
	trace := `{"n":8,"lambda":0,"arrivals":{"kind":"trace","times":[0.5,1,1.5,2,2.5]},"horizon":50,"reps":1,"seed":7}`
	resp3, rb3 := post(t, ts, "/v1/simulate", trace)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", resp3.StatusCode, rb3)
	}
	var tr experiments.SimReport
	if err := json.Unmarshal(rb3, &tr); err != nil {
		t.Fatalf("unmarshal trace: %v", err)
	}
	if tr.Arrivals != "trace(5 arrivals)" {
		t.Errorf("trace report arrivals %q, want trace(5 arrivals)", tr.Arrivals)
	}
}
