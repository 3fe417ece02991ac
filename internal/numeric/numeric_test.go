package numeric

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKahanSumExact(t *testing.T) {
	var k KahanSum
	for i := 0; i < 10; i++ {
		k.Add(0.1)
	}
	if got := k.Sum(); math.Abs(got-1.0) > 1e-15 {
		t.Errorf("KahanSum of ten 0.1 = %v, want 1.0 within 1e-15", got)
	}
}

func TestKahanSumBeatsNaive(t *testing.T) {
	// Summing 1 followed by many tiny values: naive summation loses them.
	const tiny = 1e-16
	const n = 1_000_000
	var k KahanSum
	k.Add(1)
	naive := 1.0
	for i := 0; i < n; i++ {
		k.Add(tiny)
		naive += tiny
	}
	want := 1 + tiny*n
	if RelErr(k.Sum(), want) > 1e-12 {
		t.Errorf("Kahan sum = %v, want %v", k.Sum(), want)
	}
	if RelErr(naive, want) < RelErr(k.Sum(), want) {
		t.Errorf("naive (%v) unexpectedly more accurate than Kahan (%v)", naive, k.Sum())
	}
}

func TestSum(t *testing.T) {
	var k KahanSum
	if got := k.Sum(); got != 0 {
		t.Errorf("empty sum = %v, want 0", got)
	}
	for _, x := range []float64{1, 2, 3, 4} {
		k.Add(x)
	}
	if got := k.Sum(); got != 10 {
		t.Errorf("Sum = %v, want 10", got)
	}
}

func TestNorms(t *testing.T) {
	v := []float64{3, -4}
	if got := NormInf(v); got != 4 {
		t.Errorf("NormInf = %v, want 4", got)
	}
	if NormInf(nil) != 0 {
		t.Error("norm of empty vector should be 0")
	}
}

func TestDistances(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{2, 0, 3}
	if got := Dist1(a, b); got != 3 {
		t.Errorf("Dist1 = %v, want 3", got)
	}
	if got := DistInf(a, b); got != 2 {
		t.Errorf("DistInf = %v, want 2", got)
	}
}

func TestDistPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dist1 should panic on length mismatch")
		}
	}()
	Dist1([]float64{1}, []float64{1, 2})
}

func TestGeomTailSum(t *testing.T) {
	if got := GeomTailSum(1, 0.5); got != 2 {
		t.Errorf("GeomTailSum(1, 0.5) = %v, want 2", got)
	}
}

func TestGeomTailCount(t *testing.T) {
	k := GeomTailCount(0.5, 1e-6, 1000)
	if k < 20 || k > 21 {
		t.Errorf("GeomTailCount(0.5, 1e-6) = %d, want ~20", k)
	}
	if got := GeomTailCount(0, 1e-6, 1000); got != 1 {
		t.Errorf("GeomTailCount(0) = %d, want 1", got)
	}
	if got := GeomTailCount(0.999999, 1e-300, 50); got != 50 {
		t.Errorf("GeomTailCount clamp = %d, want 50", got)
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaved")
	}
}

func TestBrent(t *testing.T) {
	cases := []struct {
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{func(x float64) float64 { return x*x - 2 }, 0, 2, math.Sqrt2},
		{func(x float64) float64 { return math.Cos(x) - x }, 0, 1, 0.7390851332151607},
		{func(x float64) float64 { return x*x*x - x - 2 }, 1, 2, 1.5213797068045676},
	}
	for i, c := range cases {
		x, err := Brent(c.f, c.a, c.b, 1e-14)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if math.Abs(x-c.want) > 1e-9 {
			t.Errorf("case %d: Brent = %v, want %v", i, x, c.want)
		}
	}
}

func TestBrentNoBracket(t *testing.T) {
	if _, err := Brent(func(x float64) float64 { return 1.0 }, 0, 1, 1e-12); err != ErrNoBracket {
		t.Errorf("want ErrNoBracket, got %v", err)
	}
}

func TestRelErr(t *testing.T) {
	if math.Abs(RelErr(1.1, 1.0)-0.1) > 1e-12 {
		t.Errorf("RelErr = %v", RelErr(1.1, 1.0))
	}
	if RelErr(0.5, 0) != 0.5 {
		t.Errorf("RelErr with want=0 should be absolute: %v", RelErr(0.5, 0))
	}
}

// Property: Brent agrees with the closed-form root on random quadratics
// with a bracketed root.
func TestRootFindersAgree(t *testing.T) {
	f := func(c float64) bool {
		c = math.Mod(math.Abs(c), 10) + 0.1 // root sqrt(c) in (0, ~3.2)
		x, err := Brent(func(x float64) float64 { return x*x - c }, 0, 11, 1e-12)
		return err == nil && math.Abs(x-math.Sqrt(c)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Dist1(a, a) == 0 and Dist1 is symmetric.
func TestDist1Properties(t *testing.T) {
	f := func(a, b [8]float64) bool {
		as, bs := a[:], b[:]
		for i := range as {
			// Skip non-finite inputs and magnitudes where a−b overflows.
			if !(math.Abs(as[i]) < 1e300) || !(math.Abs(bs[i]) < 1e300) {
				return true
			}
		}
		return Dist1(as, as) == 0 && Dist1(as, bs) == Dist1(bs, as)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
