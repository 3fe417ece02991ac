package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestValidateTailsAccepts(t *testing.T) {
	s := []float64{1, 0.5, 0.25, 0.125, 1e-15}
	if err := ValidateTails(s, 1e-9, 1e-9); err != nil {
		t.Errorf("valid tails rejected: %v", err)
	}
}

func TestValidateTailsRejects(t *testing.T) {
	cases := []struct {
		name string
		s    []float64
	}{
		{"empty", nil},
		{"s0 not 1", []float64{0.9, 0.5, 0}},
		{"negative", []float64{1, -0.2, 0}},
		{"above one", []float64{1, 1.2, 0}},
		{"increasing", []float64{1, 0.2, 0.4, 0}},
		{"fat tail", []float64{1, 0.9, 0.8}},
	}
	for _, c := range cases {
		if err := ValidateTails(c.s, 1e-9, 1e-9); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestProjectTails(t *testing.T) {
	s := []float64{0.7, 1.3, 0.5, 0.6, -0.1}
	ProjectTails(s)
	if s[0] != 1 {
		t.Errorf("s[0] = %v, want pinned to 1", s[0])
	}
	for i := 1; i < len(s); i++ {
		if s[i] > s[i-1] || s[i] < 0 || s[i] > 1 {
			t.Errorf("projection infeasible at %d: %v", i, s)
		}
	}
	if s[2] != 0.5 || s[3] != 0.5 || s[4] != 0 {
		t.Errorf("projection values wrong: %v", s)
	}
}

func TestPMFRoundTrip(t *testing.T) {
	s := []float64{1, 0.6, 0.3, 0.1, 0}
	// TailsToPMF appends after whatever dst already holds.
	p := TailsToPMF([]float64{-1}, s)
	if len(p) != 1+len(s) || p[0] != -1 {
		t.Fatalf("TailsToPMF did not append after the prefix: %v", p)
	}
	p = p[1:]
	// p = (0.4, 0.3, 0.2, 0.1, 0)
	want := []float64{0.4, 0.3, 0.2, 0.1, 0}
	for i := range want {
		if math.Abs(p[i]-want[i]) > 1e-12 {
			t.Errorf("p[%d] = %v, want %v", i, p[i], want[i])
		}
	}
	back := PMFToTails(p)
	for i := range s {
		if math.Abs(back[i]-s[i]) > 1e-12 {
			t.Errorf("round trip s[%d] = %v, want %v", i, back[i], s[i])
		}
	}
}

func TestMeanFromTails(t *testing.T) {
	// M/M/1 with λ = 0.5: s_i = 0.5^i, mean = Σ_{i≥1} 0.5^i = 1.
	s := GeometricTails(0.5, 60)
	if got := MeanFromTails(s); math.Abs(got-1) > 1e-12 {
		t.Errorf("MeanFromTails = %v, want 1", got)
	}
}

func TestTruncationDim(t *testing.T) {
	d := TruncationDim(0.5, 1e-12, 10, 10000)
	// 0.5^40 ≈ 9e-13, so ~40+2.
	if d < 40 || d > 50 {
		t.Errorf("TruncationDim = %d, want ~42", d)
	}
	if got := TruncationDim(0.99, 1e-12, 10, 100); got != 102 {
		t.Errorf("clamped TruncationDim = %d, want 102", got)
	}
	if got := TruncationDim(0.1, 1e-3, 50, 1000); got != 52 {
		t.Errorf("min-clamped TruncationDim = %d, want 52", got)
	}
}

func TestEmptyTails(t *testing.T) {
	s := EmptyTails(5)
	if s[0] != 1 {
		t.Error("EmptyTails s[0] != 1")
	}
	for i := 1; i < 5; i++ {
		if s[i] != 0 {
			t.Errorf("EmptyTails s[%d] = %v", i, s[i])
		}
	}
}

func TestTailRatio(t *testing.T) {
	s := GeometricTails(0.7, 40)
	got := TailRatio(s, 2, 1e-12)
	if math.Abs(got-0.7) > 1e-9 {
		t.Errorf("TailRatio = %v, want 0.7", got)
	}
	if !math.IsNaN(TailRatio([]float64{1, 0, 0}, 1, 1e-12)) {
		t.Error("TailRatio of dead tail should be NaN")
	}
}

// Property: ProjectTails output always passes ValidateTails (with a loose
// tail tolerance since random vectors need not decay).
func TestProjectThenValidate(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		s := make([]float64, 20)
		for i := range s {
			s[i] = r.Float64()*3 - 1
		}
		// Force a decaying end so the tail check passes.
		s[len(s)-1] = 0
		ProjectTails(s)
		return ValidateTails(s, 1e-12, 1.1) == nil && s[len(s)-1] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: TailsToPMF mass sums to s[0] and PMFToTails inverts it.
func TestPMFMassConservation(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		s := make([]float64, 15)
		for i := range s {
			s[i] = r.Float64()
		}
		s[0] = 1
		ProjectTails(s)
		p := TailsToPMF(nil, s)
		var mass float64
		for _, v := range p {
			mass += v
		}
		if math.Abs(mass-1) > 1e-9 {
			return false
		}
		back := PMFToTails(p)
		for i := range s {
			if math.Abs(back[i]-s[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
