package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedSeparation(t *testing.T) {
	a, b := New(0), New(1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("adjacent seeds collided %d times in 1000 draws", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	a, b := New(DeriveSeed(7, 0)), New(DeriveSeed(7, 1))
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("derived streams collided %d times", same)
	}
	// Derivation is deterministic.
	c, d := New(DeriveSeed(7, 1)), New(DeriveSeed(7, 1))
	for i := 0; i < 100; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("DeriveSeed not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		u := r.Float64()
		if u < 0 || u >= 1 {
			t.Fatalf("Float64 out of range: %v", u)
		}
	}
}

func TestFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 1_000_000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		u := r.Float64()
		sum += u
		sumsq += u * u
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-0.5) > 0.002 {
		t.Errorf("uniform mean = %v, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.002 {
		t.Errorf("uniform variance = %v, want ~%v", variance, 1.0/12)
	}
}

func TestIntnUniform(t *testing.T) {
	r := New(5)
	const n, draws = 10, 1_000_000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.02 {
			t.Errorf("Intn bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMoments(t *testing.T) {
	r := New(17)
	const n = 1_000_000
	const rate = 2.5
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Exp(rate)
		if x < 0 {
			t.Fatal("Exp returned negative value")
		}
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-1/rate)/(1/rate) > 0.01 {
		t.Errorf("Exp mean = %v, want %v", mean, 1/rate)
	}
	wantVar := 1 / (rate * rate)
	if math.Abs(variance-wantVar)/wantVar > 0.02 {
		t.Errorf("Exp variance = %v, want %v", variance, wantVar)
	}
}

// TestExpIsExp1OverRate pins the contract the simulator's division skip
// rests on: Exp(rate) is Exp1()/rate bit for bit, Exp(1) is Exp1(), and
// both consume exactly the draws of −log(Float64Open()) — including the
// draws Float64Open skips because they map to 0.
func TestExpIsExp1OverRate(t *testing.T) {
	// planted returns a source whose buffered draws include runs of values
	// that map to Float64() == 0 (below 2^11), so Float64Open must skip
	// them.
	planted := func(seed uint64) *Source {
		r := New(seed)
		r.Uint64() // fill the buffer
		for _, i := range []int{1, 2, 5, 6, 7, 40} {
			r.buf[i] = uint64(i) // < 1<<11: Float64() == 0
		}
		return r
	}
	for _, rate := range []float64{1, 2, 2.5, 0.85 * 32, 1e-3, 1.5} {
		a, b, c := planted(9), planted(9), planted(9)
		for i := 0; i < 3*bufLen; i++ {
			got := a.Exp(rate)
			viaExp1 := b.Exp1() / rate
			viaOpen := -math.Log(c.Float64Open()) / rate
			if math.Float64bits(got) != math.Float64bits(viaExp1) || math.Float64bits(got) != math.Float64bits(viaOpen) {
				t.Fatalf("rate %v draw %d: Exp %v, Exp1()/rate %v, -log(Float64Open())/rate %v", rate, i, got, viaExp1, viaOpen)
			}
		}
		if x, y, z := a.Uint64(), b.Uint64(), c.Uint64(); x != y || x != z {
			t.Fatalf("rate %v: stream positions diverged after identical draws", rate)
		}
	}
	a, b := planted(3), planted(3)
	for i := 0; i < bufLen; i++ {
		if x, y := a.Exp(1), b.Exp1(); math.Float64bits(x) != math.Float64bits(y) {
			t.Fatalf("draw %d: Exp(1) = %v, Exp1() = %v", i, x, y)
		}
	}
}

func TestErlangMoments(t *testing.T) {
	r := New(23)
	const n = 500000
	const k, rate = 10, 10.0 // mean 1, variance 1/10
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Erlang(k, rate)
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-1) > 0.01 {
		t.Errorf("Erlang mean = %v, want 1", mean)
	}
	if math.Abs(variance-0.1) > 0.01 {
		t.Errorf("Erlang variance = %v, want 0.1", variance)
	}
}

func TestBernoulli(t *testing.T) {
	r := New(31)
	const n = 500000
	const p = 0.3
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-p) > 0.005 {
		t.Errorf("Bernoulli(%v) frequency = %v", p, got)
	}
}

func TestMul64(t *testing.T) {
	hi, lo := mul64(math.MaxUint64, math.MaxUint64)
	// (2^64-1)^2 = 2^128 - 2^65 + 1 -> hi = 2^64-2, lo = 1.
	if hi != math.MaxUint64-1 || lo != 1 {
		t.Errorf("mul64 max*max = (%d, %d)", hi, lo)
	}
	hi, lo = mul64(1<<32, 1<<32)
	if hi != 1 || lo != 0 {
		t.Errorf("mul64 2^32*2^32 = (%d, %d), want (1, 0)", hi, lo)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Exp(1)
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(128)
	}
	_ = sink
}

// rawXoshiro is an unbatched reference copy of the xoshiro256** core, kept
// in the test so the batching layer in Source can be checked against the
// published algorithm rather than against itself.
type rawXoshiro struct{ s [4]uint64 }

func newRaw(seed uint64) *rawXoshiro {
	x := seed
	var r rawXoshiro
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	return &r
}

func (r *rawXoshiro) next() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// TestBatchingSequenceIdentity pins the batch buffer's contract: the
// buffered Source emits exactly the unbatched xoshiro256** stream, across
// multiple refills and after a mid-stream Reseed.
func TestBatchingSequenceIdentity(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1998} {
		r, raw := New(seed), newRaw(seed)
		for i := 0; i < 5*bufLen+7; i++ {
			if got, want := r.Uint64(), raw.next(); got != want {
				t.Fatalf("seed %d: draw %d = %#x, reference %#x", seed, i, got, want)
			}
		}
		// Reseed mid-buffer: remaining buffered values must be discarded.
		r.Reseed(seed + 100)
		raw = newRaw(seed + 100)
		for i := 0; i < bufLen+3; i++ {
			if got, want := r.Uint64(), raw.next(); got != want {
				t.Fatalf("seed %d after Reseed: draw %d = %#x, reference %#x", seed, i, got, want)
			}
		}
	}
}

// TestBoundedMatchesIntn pins Bounded's contract: same values AND same
// stream consumption as Intn, for bounds with and without rejection
// regions (powers of two have threshold 0).
func TestBoundedMatchesIntn(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 127, 128, 1000003} {
		a, b := New(uint64(n)), New(uint64(n))
		smp := NewBounded(n)
		for i := 0; i < 20000; i++ {
			if got, want := smp.Next(a), b.Intn(n); got != want {
				t.Fatalf("n=%d draw %d: Bounded %d, Intn %d", n, i, got, want)
			}
		}
		// Same stream position afterward: both must have consumed the same
		// number of Uint64 draws (rejections included).
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("n=%d: stream positions diverged after identical draws", n)
		}
	}
}

func TestBoundedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewBounded(0) should panic")
		}
	}()
	NewBounded(0)
}

// TestSourceAllocs pins the allocation budget: one alloc for New (the
// Source itself, buffer included), none for Reseed or any sampler.
func TestSourceAllocs(t *testing.T) {
	if avg := testing.AllocsPerRun(100, func() { _ = New(1) }); avg > 1 {
		t.Errorf("New allocates %.1f times, want <= 1", avg)
	}
	r := New(2)
	smp := NewBounded(37)
	if avg := testing.AllocsPerRun(100, func() {
		r.Reseed(3)
		for i := 0; i < 2*bufLen; i++ {
			_ = r.Uint64()
		}
		_ = r.Exp(1)
		_ = r.Intn(10)
		_ = smp.Next(r)
	}); avg != 0 {
		t.Errorf("steady-state draws allocate %.2f times, want 0", avg)
	}
}

func BenchmarkBoundedNext(b *testing.B) {
	r := New(1)
	smp := NewBounded(128)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += smp.Next(r)
	}
	_ = sink
}
