package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// Fuzz tests for the JSON request decoder and cache-key canonicalization.
// The property under test: any body the decoder accepts hashes to the same
// cache key after its fields are reordered (and renumbered through
// json.Number round-tripping), and the canonical form itself is a fixed
// point of canonicalization. Bodies carrying NaN/Inf literals or negative
// arrival rates must never be accepted.

// canonFn decodes one request body exactly as its handler would and
// returns the derived cache key plus the validated arrival rate.
type canonFn func(body []byte) (key string, lambda float64, err error)

func fixedPointKey(body []byte) (string, float64, error) {
	var spec experiments.FixedPointSpec
	key, err := modelKey(body, "fp", &spec)
	mustBuild(body, err, spec.BuildModel)
	return key, spec.Lambda, err
}

func odeKey(body []byte) (string, float64, error) {
	var spec experiments.ODESpec
	key, err := modelKey(body, "ode", &spec)
	mustBuild(body, err, spec.BuildModel)
	return key, spec.Lambda, err
}

// mustBuild panics when a body the handler accepted (err == nil) names a
// model that does not build: the hit path validates without building, so
// the miss path must not then reject what the hit path served.
func mustBuild(body []byte, err error, build func() (core.Model, error)) {
	if err != nil {
		return
	}
	if _, err := build(); err != nil {
		panic(fmt.Sprintf("validated body %q does not build: %v", body, err))
	}
}

func simKey(body []byte) (string, float64, error) {
	var req SimulateRequest
	if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
		return "", 0, err
	}
	if _, err := req.SimSpec.Options(); err != nil {
		return "", 0, err
	}
	key, err := canonicalKey("sim", &req.SimSpec)
	return key, req.SimSpec.Lambda, err
}

// reorderJSON round-trips body through map[string]any with json.Number,
// which rewrites the object with sorted keys and canonical separators while
// preserving the exact number literals. ok is false when the body is not a
// JSON object (nothing to reorder).
func reorderJSON(body []byte) (reordered []byte, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var m map[string]any
	if err := dec.Decode(&m); err != nil || m == nil {
		return nil, false
	}
	out, err := json.Marshal(m)
	if err != nil {
		return nil, false
	}
	return out, true
}

// checkCanonical asserts the canonicalization properties for one accepted
// or rejected body.
func checkCanonical(t *testing.T, body []byte, keyOf canonFn) {
	t.Helper()
	key1, lambda, err := keyOf(body)
	if err != nil {
		return // rejected input: nothing else to hold
	}

	// Accepted specs can never carry a non-finite or negative arrival rate.
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) || lambda < 0 {
		t.Fatalf("accepted spec has invalid lambda %v (body %q)", lambda, body)
	}

	// Field order must not matter.
	if re, ok := reorderJSON(body); ok {
		key2, _, err := keyOf(re)
		if err != nil {
			t.Fatalf("reordered body rejected: %v\noriginal:  %q\nreordered: %q", err, body, re)
		}
		if key2 != key1 {
			t.Fatalf("key changed under field reordering\noriginal:  %q → %s\nreordered: %q → %s", body, key1, re, key2)
		}
	}
}

var fixedPointSeeds = []string{
	`{"model":"simple","lambda":0.9}`,
	`{"model":"threshold","lambda":0.7,"t":3}`,
	`{"model":"multisteal","lambda":0.5,"t":4,"k":2}`,
	`{"model":"multisteal","lambda":0.5,"t":4,"k":3}`, // 2k > T: only the constructor checked it
	`{"model":"preemptive","lambda":0.9,"b":3,"t":4}`, // T < b+2: only the constructor checked it
	`{"model":"stages","lambda":0.8,"c":10,"t":2}`,
	`{"model":"spawning","lambda":0.6,"li":0.3,"t":2,"tails":8}`,
	`{"lambda":0.9,"model":"simple"}`, // reordered seed
	`{"model":"simple","lambda":-0.5}`,
	`{"model":"simple","lambda":1e309}`,
	`{"model":"simple","lambda":NaN}`,
	`{"model":"nosuch","lambda":0.9}`,
	`{"model":"simple","lambda":0.9,"bogus":1}`,
	`{"model":"simple","lambda":0.9}{}`,
	`null`,
	`{}`,
}

func FuzzFixedPointRequest(f *testing.F) {
	for _, s := range fixedPointSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkCanonical(t, body, fixedPointKey)
	})
}

var odeSeeds = []string{
	`{"model":"simple","lambda":0.9}`,
	`{"model":"choices","lambda":0.95,"t":2,"d":3,"span":100,"dt":0.5}`,
	`{"dt":0.5,"span":100,"d":3,"t":2,"lambda":0.95,"model":"choices"}`,
	`{"model":"threshold","lambda":0.7,"t":3,"span":400}`,
	`{"model":"transfer","lambda":0.9}`, // ODE set excludes transfer
	`{"model":"simple","lambda":-1}`,
	`{"model":"simple","lambda":0.9,"span":1e308,"dt":1e-308}`,
	`{"model":"simple","lambda":Infinity}`,
}

func FuzzODERequest(f *testing.F) {
	for _, s := range odeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkCanonical(t, body, odeKey)
	})
}

var simSeeds = []string{
	`{"n":16,"lambda":0.8,"horizon":1200,"warmup":100,"reps":2,"seed":7}`,
	`{"seed":7,"reps":2,"warmup":100,"horizon":1200,"lambda":0.8,"n":16}`,
	`{"n":64,"lambda":0.9,"policy":"choices","d":2}`,
	`{"n":32,"lambda":0.7,"service":{"dist":"erlang","stages":5},"qhist":true}`,
	`{"n":16,"lambda":0.8,"deadline_sec":0.5}`,
	`{"n":16,"lambda":-0.8}`,
	`{"n":100000,"lambda":0.8}`,
	`{"n":16,"lambda":0.8,"reps":1000}`,
	`{"n":16,"lambda":0.8,"horizon":1e300}`,
	`{"n":16,"lambda":0.8,"seed":9223372036854775807}`,
	`{"engine":"hybrid","n":100000,"lambda":0.9,"t":2,"horizon":400,"reps":1,"seed":7}`,
	`{"tracked":64,"engine":"hybrid","seed":7,"reps":1,"horizon":400,"t":2,"lambda":0.9,"n":100000}`,
	`{"engine":"fluid","n":64,"lambda":0.85,"t":2,"horizon":2000,"warmup":1000}`,
	`{"engine":"des","n":16,"lambda":0.8}`,
	`{"engine":"warp","n":16,"lambda":0.8}`,
	`{"engine":"hybrid","n":16,"lambda":0.8,"tracked":32}`,
	`{"engine":"fluid","n":16,"lambda":0.8,"tracked":4}`,
	`{"n":16,"lambda":0.8,"tracked":-1,"engine":"hybrid"}`,
	// Workload objects: parameterized service and arrival models.
	`{"n":32,"lambda":0.75,"service":{"dist":"h2","scv":4}}`,
	`{"n":32,"lambda":0.75,"service":{"dist":"pareto","shape":1.5,"ratio":1000}}`,
	`{"n":32,"lambda":0.7,"service":{"dist":"erlang","stages":4}}`,
	`{"n":32,"lambda":0,"arrivals":{"kind":"mmpp","rates":[1.4,0],"switch":[1,1]},"horizon":500}`,
	`{"n":32,"lambda":0,"arrivals":{"kind":"trace","times":[0.5,1,1.5]},"horizon":10}`,
	`{"n":32,"lambda":0.8,"service":"h2","arrivals":"poisson"}`,
	// Workload rejections: out-of-domain fits and malformed arrival specs.
	`{"n":32,"lambda":0.8,"service":{"dist":"h2","scv":-4}}`,
	`{"n":32,"lambda":0.8,"service":{"dist":"h2","scv":0.5}}`,
	`{"n":32,"lambda":0.8,"service":{"dist":"pareto","shape":1.5,"ratio":0.5}}`,
	`{"n":32,"lambda":0,"arrivals":{"kind":"trace","times":[]}}`,
	`{"n":32,"lambda":0,"arrivals":{"kind":"trace","times":[2,1]}}`,
	`{"n":32,"lambda":0,"arrivals":{"kind":"trace","path":"/etc/passwd"}}`,
	`{"n":32,"lambda":0,"arrivals":{"kind":"mmpp","rates":[1e999]}}`,
	`{"n":32,"lambda":0,"arrivals":{"kind":"mmpp","rates":[-1]}}`,
	`{"n":32,"lambda":0.5,"arrivals":{"kind":"mmpp","rates":[0.5]}}`,
	`{"n":32,"lambda":0.8,"service":{"dist":"exp","bogus":1}}`,
}

func FuzzSimulateRequest(f *testing.F) {
	for _, s := range simSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkCanonical(t, body, simKey)
	})
}

// TestCanonicalKeyFieldOrder pins the reordering property deterministically
// (the fuzz targets only exercise it when the fuzzer mutates toward valid
// JSON) and checks the implied-defaults collision: spelling out a default
// value yields the same key as omitting the field.
func TestCanonicalKeyFieldOrder(t *testing.T) {
	cases := []struct {
		name   string
		keyOf  canonFn
		bodies []string
	}{
		{"fixedpoint", fixedPointKey, []string{
			`{"model":"multisteal","lambda":0.5,"t":4,"k":2}`,
			`{"k":2,"t":4,"lambda":0.5,"model":"multisteal"}`,
			`{"t":4,"model":"multisteal","k":2,"lambda":0.5}`,
			`{"model":"multisteal","lambda":0.5,"t":4,"k":2,"tails":12}`, // tails=12 is the default
		}},
		{"ode", odeKey, []string{
			`{"model":"choices","lambda":0.95,"t":2,"d":3}`,
			`{"d":3,"t":2,"lambda":0.95,"model":"choices"}`,
			`{"model":"choices","lambda":0.95,"t":2,"d":3,"span":200,"dt":1}`, // defaults spelled out
		}},
		{"simulate", simKey, []string{
			`{"n":16,"lambda":0.8,"horizon":1200,"warmup":100,"reps":2,"seed":7}`,
			`{"seed":7,"reps":2,"warmup":100,"horizon":1200,"lambda":0.8,"n":16}`,
			`{"n":16,"lambda":0.8,"horizon":1200,"warmup":100,"reps":2,"seed":7,"policy":"steal","service":"exp"}`,
			// deadline_sec is a serving knob, not part of the cache key.
			`{"n":16,"lambda":0.8,"horizon":1200,"warmup":100,"reps":2,"seed":7,"deadline_sec":2.5}`,
			// engine "des" is the implied default.
			`{"n":16,"lambda":0.8,"horizon":1200,"warmup":100,"reps":2,"seed":7,"engine":"des"}`,
		}},
		{"simulate-hybrid", simKey, []string{
			`{"engine":"hybrid","n":100000,"lambda":0.9,"t":2,"horizon":400,"reps":1,"seed":7}`,
			`{"seed":7,"reps":1,"horizon":400,"t":2,"lambda":0.9,"n":100000,"engine":"hybrid"}`,
			// tracked=256 is hybrid's implied default at this n.
			`{"engine":"hybrid","n":100000,"lambda":0.9,"t":2,"horizon":400,"reps":1,"seed":7,"tracked":256}`,
		}},
		{"simulate-erlang-spellings", simKey, []string{
			// The plain name is the object form at the default stage
			// count; every spelling must share one cache entry.
			`{"n":32,"lambda":0.7,"service":"erlang","horizon":900,"reps":1,"seed":7}`,
			`{"n":32,"lambda":0.7,"service":{"dist":"erlang","stages":10},"horizon":900,"reps":1,"seed":7}`,
			`{"service":{"stages":10,"dist":"erlang"},"seed":7,"reps":1,"horizon":900,"lambda":0.7,"n":32}`,
		}},
		{"simulate-workload-defaults", simKey, []string{
			`{"n":32,"lambda":0.7,"service":"h2","horizon":900}`,
			// scv=4 is the h2 default; poisson arrivals are the implied default.
			`{"n":32,"lambda":0.7,"service":{"dist":"h2","scv":4},"horizon":900}`,
			`{"n":32,"lambda":0.7,"service":{"dist":"h2","scv":4},"horizon":900,"arrivals":"poisson"}`,
		}},
		{"simulate-h2-collapse", simKey, []string{
			// An h2 with SCV exactly 1 is the exponential, spelled long.
			`{"n":32,"lambda":0.7,"horizon":900}`,
			`{"n":32,"lambda":0.7,"service":{"dist":"h2","scv":1},"horizon":900}`,
			`{"n":32,"lambda":0.7,"service":"exp","horizon":900,"arrivals":"poisson"}`,
		}},
		{"simulate-mmpp", simKey, []string{
			`{"n":32,"lambda":0,"arrivals":{"kind":"mmpp","rates":[1.4,0],"switch":[1,1]},"horizon":500,"seed":7}`,
			`{"seed":7,"horizon":500,"arrivals":{"switch":[1,1],"rates":[1.4,0],"kind":"mmpp"},"lambda":0,"n":32}`,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, _, err := tc.keyOf([]byte(tc.bodies[0]))
			if err != nil {
				t.Fatalf("body 0 rejected: %v", err)
			}
			for i, b := range tc.bodies[1:] {
				got, _, err := tc.keyOf([]byte(b))
				if err != nil {
					t.Fatalf("body %d rejected: %v", i+1, err)
				}
				if got != want {
					t.Errorf("body %d key = %s, want %s (%s)", i+1, got, want, b)
				}
			}
		})
	}
}

// TestDecoderRejectsNonFinite pins the rejection property: NaN/Inf cannot
// be smuggled through any JSON spelling, and negative rates are refused by
// validation on every endpoint.
func TestDecoderRejectsNonFinite(t *testing.T) {
	bad := []string{
		`{"model":"simple","lambda":NaN}`,
		`{"model":"simple","lambda":Infinity}`,
		`{"model":"simple","lambda":-Infinity}`,
		`{"model":"simple","lambda":1e999}`, // overflows to +Inf at decode
		`{"model":"simple","lambda":-0.5}`,
	}
	for _, body := range bad {
		for name, keyOf := range map[string]canonFn{"fixedpoint": fixedPointKey, "ode": odeKey} {
			if _, _, err := keyOf([]byte(body)); err == nil {
				t.Errorf("%s accepted %s", name, body)
			}
		}
	}
	simBad := []string{
		`{"n":16,"lambda":NaN}`,
		`{"n":16,"lambda":1e999}`,
		`{"n":16,"lambda":-0.8}`,
		`{"n":16,"lambda":0.8,"warmup":Infinity}`,
	}
	for _, body := range simBad {
		if _, _, err := simKey([]byte(body)); err == nil {
			t.Errorf("simulate accepted %s", body)
		}
	}
}
