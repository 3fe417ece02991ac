package experiments

// Byte-identity golden for the mean-field layer: the rendered fixed-point
// report of every wsfixed model at two arrival rates plus non-default
// parameter cases, a SHA-256 of each full fixed-point state (reports keep
// only the leading tails), and the ODE trajectory report of every wsode
// model. A restructuring of internal/meanfield must pass it unchanged;
// regenerate only for an intentional behaviour change, with
//
//	go test ./internal/experiments -run TestMeanFieldGolden -update

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the mean-field golden under testdata/")

// meanFieldGoldenSpecs is every FixedPointModels entry at its default
// parameters (multisteal at T = 4) for λ ∈ {0.5, 0.9}, the threshold-family
// models at λ = 0.99, and non-default parameters for the models that take
// them, including the stage, rebalance and choices kernels at λ = 0.8 away
// from their defaults. Transfer-family models stay below λ = 0.95, where
// one solve takes minutes.
func meanFieldGoldenSpecs() []FixedPointSpec {
	var specs []FixedPointSpec
	for _, lam := range []float64{0.5, 0.9} {
		for _, m := range FixedPointModels {
			spec := FixedPointSpec{Model: m, Lambda: lam}
			if m == "multisteal" {
				spec.T = 4 // the default k = 2 needs T >= 2k
			}
			specs = append(specs, spec)
		}
	}
	for _, m := range []string{"simple", "threshold", "repeated"} {
		specs = append(specs, FixedPointSpec{Model: m, Lambda: 0.99})
	}
	// No stealing near saturation, and spawning away from its default
	// threshold and spawn fraction: the threshold kernel's separate level-1
	// and busy-level arrival rates.
	specs = append(specs,
		FixedPointSpec{Model: "nosteal", Lambda: 0.99},
		FixedPointSpec{Model: "spawning", Lambda: 0.8, T: 3, LI: 0.5},
		FixedPointSpec{Model: "spawning", Lambda: 0.8, T: 4},
	)
	return append(specs,
		FixedPointSpec{Model: "threshold", Lambda: 0.9, T: 3},
		FixedPointSpec{Model: "threshold", Lambda: 0.9, T: 5},
		FixedPointSpec{Model: "repeated", Lambda: 0.9, R: 0.5},
		FixedPointSpec{Model: "repeated", Lambda: 0.9, R: 4},
		FixedPointSpec{Model: "transfer", Lambda: 0.9, T: 4, R: 0.25},
		FixedPointSpec{Model: "repeated-transfer", Lambda: 0.9, RA: 0.5},
		FixedPointSpec{Model: "choices", Lambda: 0.9, D: 3},
		FixedPointSpec{Model: "multisteal", Lambda: 0.9, T: 6, K: 3},
		FixedPointSpec{Model: "preemptive", Lambda: 0.9, B: 1, T: 4},
		FixedPointSpec{Model: "stages", Lambda: 0.8, C: 3, T: 3},
		FixedPointSpec{Model: "stages", Lambda: 0.8, C: 1, T: 2},
		FixedPointSpec{Model: "rebalance", Lambda: 0.8, R: 0.25},
		FixedPointSpec{Model: "rebalance", Lambda: 0.8, R: 4},
		FixedPointSpec{Model: "choices", Lambda: 0.8, D: 3, T: 3},
	)
}

// stateDigest hashes the exact float64 bits of a state vector.
func stateDigest(x []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

type fixedPointGolden struct {
	Spec   FixedPointSpec   `json:"spec"`
	Report FixedPointReport `json:"report"`
	State  string           `json:"state_sha256"`
}

type meanFieldGolden struct {
	FixedPoints []fixedPointGolden `json:"fixed_points"`
	ODEs        []ODEReport        `json:"odes"`
}

func TestMeanFieldGolden(t *testing.T) {
	var got meanFieldGolden
	for _, spec := range meanFieldGoldenSpecs() {
		rep, fp, err := spec.Solve()
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		got.FixedPoints = append(got.FixedPoints, fixedPointGolden{spec, rep, stateDigest(fp.State)})
	}
	for _, m := range ODEModels {
		spec := ODESpec{Model: m, Lambda: 0.9, Dt: 5}
		rep, err := spec.Integrate()
		if err != nil {
			t.Fatalf("ode %s: %v", m, err)
		}
		got.ODEs = append(got.ODEs, rep)
	}
	out, err := json.MarshalIndent(got, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, '\n')

	path := filepath.Join("testdata", "meanfield.golden.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update): %v", err)
	}
	if bytes.Equal(out, want) {
		return
	}
	var old meanFieldGolden
	if err := json.Unmarshal(want, &old); err != nil {
		t.Fatalf("unreadable golden %s: %v", path, err)
	}
	for i, g := range got.FixedPoints {
		if i >= len(old.FixedPoints) || fmt.Sprint(g) != fmt.Sprint(old.FixedPoints[i]) {
			t.Errorf("fixed point %d (%s λ=%g) drifted from %s", i, g.Spec.Model, g.Spec.Lambda, path)
		}
	}
	t.Errorf("%s drifted (regenerate with -update only for an intentional change)", path)
}
