package experiments

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/sched"
	"repro/internal/table"
)

// The tables the paper publishes must not depend on how many workers the
// global scheduler happens to run, nor on whether builders share a pool:
// replication i of every cell always consumes the stream DeriveSeed(seed, i)
// and lands in slot i, so any interleaving assembles the same bytes.

// csvBytes renders a table to its canonical CSV form.
func csvBytes(t *testing.T, tb *table.Table) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// microScale keeps the determinism matrix cheap; byte-identity does not
// need statistical precision.
var microScale = Scale{
	Reps:    3,
	Horizon: 600,
	Warmup:  60,
	Ns:      []int{8, 16},
	Lambdas: []float64{0.50, 0.90},
	Seed:    42,
}

// TestTablesByteIdenticalAcrossWorkers renders each paper table at three
// scheduler configurations — single worker, many workers, and a builder's
// private GOMAXPROCS pool — and requires byte-identical CSV output.
func TestTablesByteIdenticalAcrossWorkers(t *testing.T) {
	builders := map[string]func(Scale) *table.Table{
		"table1": Table1,
		"table2": Table2,
		"table3": Table3,
		"table4": Table4,
	}
	for name, build := range builders {
		name, build := name, build
		t.Run(name, func(t *testing.T) {
			serial := microScale
			serial.Pool = sched.New(1)
			defer serial.Pool.Close()
			want := csvBytes(t, build(serial))

			wide := microScale
			wide.Pool = sched.New(8)
			defer wide.Pool.Close()
			if got := csvBytes(t, build(wide)); !bytes.Equal(got, want) {
				t.Errorf("8-worker output differs from 1-worker output:\n--- workers=1\n%s--- workers=8\n%s", want, got)
			}

			if got := csvBytes(t, build(microScale)); !bytes.Equal(got, want) {
				t.Errorf("private-pool output differs from 1-worker output")
			}
		})
	}
}

// TestConcurrentBuildersByteIdentical runs all four table builders at once
// on one pool — the `wstables -table all` configuration — and checks each
// still produces the bytes its solo run produces.
func TestConcurrentBuildersByteIdentical(t *testing.T) {
	builders := []func(Scale) *table.Table{Table1, Table2, Table3, Table4}

	solo := microScale
	solo.Pool = sched.New(1)
	defer solo.Pool.Close()
	want := make([][]byte, len(builders))
	for i, build := range builders {
		want[i] = csvBytes(t, build(solo))
	}

	shared := microScale
	shared.Pool = sched.New(4)
	defer shared.Pool.Close()
	got := make([][]byte, len(builders))
	var wg sync.WaitGroup
	for i, build := range builders {
		i, build := i, build
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = csvBytes(t, build(shared))
		}()
	}
	wg.Wait()
	for i := range builders {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("table %d: concurrent shared-pool output differs from solo output", i+1)
		}
	}
}
