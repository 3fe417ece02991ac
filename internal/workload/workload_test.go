package workload

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
)

func TestServiceSpecJSONPolymorphic(t *testing.T) {
	cases := []struct {
		in   string
		want ServiceSpec
	}{
		{`"exp"`, ServiceSpec{Dist: "exp"}},
		{`"hyper"`, ServiceSpec{Dist: "hyper"}},
		{`{"dist":"h2","scv":4}`, ServiceSpec{Dist: "h2", SCV: 4}},
		{`{"dist":"erlang","stages":4}`, ServiceSpec{Dist: "erlang", Stages: 4}},
		{`{"dist":"pareto","shape":1.5,"ratio":1000}`, ServiceSpec{Dist: "pareto", Shape: 1.5, Ratio: 1000}},
	}
	for _, tc := range cases {
		var got ServiceSpec
		if err := json.Unmarshal([]byte(tc.in), &got); err != nil {
			t.Fatalf("unmarshal %s: %v", tc.in, err)
		}
		if got != tc.want {
			t.Errorf("unmarshal %s = %+v, want %+v", tc.in, got, tc.want)
		}
	}
	// Unknown fields inside the object form are rejected even though the
	// outer decoder's strictness cannot see them.
	var s ServiceSpec
	if err := json.Unmarshal([]byte(`{"dist":"h2","scvv":4}`), &s); err == nil {
		t.Error("unknown field in service object should fail")
	}
}

func TestServiceSpecCanonicalMarshal(t *testing.T) {
	cases := []struct {
		spec ServiceSpec
		want string
	}{
		{ServiceSpec{Dist: "exp"}, `"exp"`},
		{ServiceSpec{Dist: "erlang"}, `"erlang"`},
		{ServiceSpec{Dist: "h2", SCV: 4}, `{"dist":"h2","scv":4}`},
		{ServiceSpec{Dist: "pareto", Shape: 1.5, Ratio: 1000}, `{"dist":"pareto","shape":1.5,"ratio":1000}`},
	}
	for _, tc := range cases {
		b, err := json.Marshal(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != tc.want {
			t.Errorf("marshal %+v = %s, want %s", tc.spec, b, tc.want)
		}
	}
}

func TestServiceSpecNormalizeCollapses(t *testing.T) {
	// h2 with SCV 1 is exactly exponential and must canonicalize to it.
	s := ServiceSpec{Dist: "h2", SCV: 1}
	s.Normalize()
	if s != (ServiceSpec{Dist: "exp"}) {
		t.Errorf("h2(scv=1) normalized to %+v, want exp", s)
	}
	// Parameters that don't apply to the dist are zeroed.
	s = ServiceSpec{Dist: "exp", SCV: 4, Stages: 7, Shape: 2, Ratio: 10}
	s.Normalize()
	if s != (ServiceSpec{Dist: "exp"}) {
		t.Errorf("exp with stray params normalized to %+v", s)
	}
	// Defaults fill in.
	s = ServiceSpec{Dist: "h2"}
	s.Normalize()
	if s.SCV != DefaultH2SCV {
		t.Errorf("h2 default scv = %v, want %v", s.SCV, DefaultH2SCV)
	}
	s = ServiceSpec{Dist: "pareto"}
	s.Normalize()
	if s.Shape != DefaultParetoShape || s.Ratio != DefaultParetoRatio {
		t.Errorf("pareto defaults = %+v", s)
	}
}

func TestServiceSpecDistribution(t *testing.T) {
	for _, name := range ServiceDists {
		s := ServiceSpec{Dist: name}
		d, err := s.Distribution()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m := d.Mean(); math.Abs(m-1) > 1e-9 {
			t.Errorf("%s: mean %v, want 1 (unit-mean convention)", name, m)
		}
	}
	s := ServiceSpec{Dist: "h2", SCV: 16}
	d, err := s.Distribution()
	if err != nil {
		t.Fatal(err)
	}
	if got := dist.SCV(d); math.Abs(got-16) > 1e-9 {
		t.Errorf("h2 scv = %v, want 16", got)
	}
	for _, bad := range []ServiceSpec{
		{Dist: "nope"},
		{Dist: "h2", SCV: 0.5},
		{Dist: "h2", SCV: math.NaN()},
		{Dist: "erlang", Stages: -1},
		{Dist: "erlang", Stages: dist.MaxPhases + 1},
		{Dist: "pareto", Shape: -2},
		{Dist: "pareto", Shape: 1.5, Ratio: 0.5},
		{Dist: "pareto", Shape: 20, Ratio: 1.5}, // scv < 1, no H2 fit
	} {
		bad := bad
		if _, err := bad.Distribution(); err == nil {
			t.Errorf("%+v should fail", bad)
		}
	}
}

func TestArrivalSpecJSONAndValidate(t *testing.T) {
	var a ArrivalSpec
	if err := json.Unmarshal([]byte(`"poisson"`), &a); err != nil {
		t.Fatal(err)
	}
	if !a.IsPoisson() {
		t.Errorf("string poisson: %+v", a)
	}
	if err := json.Unmarshal([]byte(`{"kind":"mmpp","rates":[1.6,0.1],"switch":[0.5,0.5]}`), &a); err != nil {
		t.Fatal(err)
	}
	if a.Kind != "mmpp" || len(a.Rates) != 2 {
		t.Errorf("mmpp decode: %+v", a)
	}
	if err := json.Unmarshal([]byte(`{"kind":"mmpp","ratess":[1]}`), &a); err == nil {
		t.Error("unknown field in arrivals object should fail")
	}

	// Canonical marshal: poisson collapses to the string.
	b, err := json.Marshal(ArrivalSpec{Kind: "poisson"})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"poisson"` {
		t.Errorf("poisson marshal = %s", b)
	}

	bad := []ArrivalSpec{
		{Kind: "nope"},
		{Kind: "poisson", Rates: []float64{1}},
		{Kind: "mmpp"},
		{Kind: "mmpp", Rates: []float64{0, 0}, Switch: []float64{1, 1}},
		{Kind: "mmpp", Rates: []float64{1, math.NaN()}, Switch: []float64{1, 1}},
		{Kind: "mmpp", Rates: []float64{1, 2}, Switch: []float64{1}},
		{Kind: "mmpp", Rates: []float64{1, 2}, Switch: []float64{1, 0}},
		{Kind: "mmpp", Rates: make([]float64, MaxMMPPPhases+1)},
		{Kind: "trace"},
		{Kind: "trace", Times: []float64{1, math.Inf(1)}},
		{Kind: "trace", Times: []float64{2, 1}},
		{Kind: "trace", Times: []float64{-1}},
		{Kind: "trace", Path: "file.csv"},
		{Kind: "trace", Times: []float64{1}, Rates: []float64{1}},
	}
	for _, s := range bad {
		s := s
		s.Normalize()
		if err := s.Validate(); err == nil {
			t.Errorf("%+v should fail validation", s)
		}
	}
}

func TestArrivalSpecProcess(t *testing.T) {
	var nilSpec *ArrivalSpec
	p, err := nilSpec.Process()
	if err != nil || p != nil {
		t.Errorf("nil spec: process %v err %v, want nil, nil", p, err)
	}
	s := &ArrivalSpec{Kind: "poisson"}
	if p, err = s.Process(); err != nil || p != nil {
		t.Errorf("poisson spec: process %v err %v, want nil, nil", p, err)
	}
	s = &ArrivalSpec{Kind: "mmpp", Rates: []float64{1.6, 0.1}, Switch: []float64{0.5, 0.5}}
	p, err = s.Process()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.(MMPP); !ok {
		t.Fatalf("mmpp spec built %T", p)
	}
}

// TestMMPPMeanRate checks the empirical arrival rate of a two-phase on-off
// source against the stationary closed form.
func TestMMPPMeanRate(t *testing.T) {
	m := MMPP{Rates: []float64{1.5, 0.1}, Switch: []float64{0.25, 0.75}}
	want := m.MeanRate()
	// Dwell ∝ 1/q: phase 0 weight 4, phase 1 weight 4/3 → mean =
	// (4·1.5 + (4/3)·0.1) / (16/3).
	closed := (4*1.5 + 4.0/3*0.1) / (4 + 4.0/3)
	if math.Abs(want-closed) > 1e-12 {
		t.Fatalf("MeanRate = %v, closed form %v", want, closed)
	}
	src := m.NewSource(10)
	r := rng.New(1998)
	const horizon = 20_000.0
	count := 0
	tNow := 0.0
	for {
		tNow = src.Next(tNow, r)
		if tNow > horizon {
			break
		}
		count++
	}
	got := float64(count) / horizon / 10
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("empirical per-processor rate %v, want %v", got, want)
	}
}

func TestTraceSource(t *testing.T) {
	tr := Trace{Times: []float64{0.5, 1.5, 1.5, 3}}
	src := tr.NewSource(4)
	r := rng.New(1)
	var got []float64
	for {
		v := src.Next(0, r)
		if math.IsInf(v, 1) {
			break
		}
		got = append(got, v)
	}
	if len(got) != 4 || got[0] != 0.5 || got[1] != 1.5 || got[2] != 1.5 || got[3] != 3 {
		t.Errorf("trace replay = %v", got)
	}
	// Exhausted source stays exhausted.
	if v := src.Next(0, r); !math.IsInf(v, 1) {
		t.Errorf("exhausted trace returned %v", v)
	}
}

func TestLoadTrace(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := dir + "/" + name
		if err := writeFile(p, content); err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := write("a.json", `[3, 1, 2]`)
	times, err := LoadTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 || times[0] != 1 || times[2] != 3 {
		t.Errorf("json array trace = %v (must be sorted)", times)
	}
	p = write("b.json", `{"times": [0.25, 0.5]}`)
	if times, err = LoadTrace(p); err != nil || len(times) != 2 {
		t.Errorf("json object trace = %v, %v", times, err)
	}
	p = write("c.csv", "time,source\n# comment\n0.5,a\n1.25,b\n\n2.0,c\n")
	times, err = LoadTrace(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 || times[0] != 0.5 || times[2] != 2 {
		t.Errorf("csv trace = %v", times)
	}
	if _, err := LoadTrace(dir + "/missing.csv"); err == nil {
		t.Error("missing file should fail")
	}
	p = write("bad.csv", "1.5\nnot-a-number\n")
	if _, err := LoadTrace(p); err == nil {
		t.Error("non-numeric body line should fail")
	}
	p = write("empty.csv", "# nothing\n")
	if _, err := LoadTrace(p); err == nil {
		t.Error("empty trace should fail")
	}
	p = write("bad.json", `{"nope": 1`)
	if _, err := LoadTrace(p); err == nil {
		t.Error("malformed json should fail")
	}
}

// TestServiceSpecStringRoundTrip pins that every legacy string form decodes
// and re-encodes to itself — the canonical-bytes contract the cache keys
// rely on.
func TestServiceSpecStringRoundTrip(t *testing.T) {
	for _, name := range []string{"exp", "const", "erlang", "hyper", "uniform"} {
		var s ServiceSpec
		if err := json.Unmarshal([]byte(`"`+name+`"`), &s); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != `"`+name+`"` {
			t.Errorf("%s round-trips to %s", name, b)
		}
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
