package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"math/rand/v2"

	"repro/internal/experiments"
)

// request is one HTTP call of a workload: a route and its JSON body. The
// benchmark only ever sends bodies it generated from the seed.
type request struct {
	route string
	body  []byte
}

// sequence is a workload's timed requests in send order. A sequence that
// repeats a small set of requests stores each once, in distinct, and
// names the one sent at each position by its index in at; otherwise at is
// nil and distinct is the sequence itself. This keeps a long hot run's own
// bookkeeping small next to the server it measures.
type sequence struct {
	distinct []request
	at       []uint8 // nil, or an index into distinct per position
}

func (s sequence) len() int {
	if s.at != nil {
		return len(s.at)
	}
	return len(s.distinct)
}

// slot is the index into distinct of the request at position i.
func (s sequence) slot(i int) int {
	if s.at != nil {
		return int(s.at[i])
	}
	return i
}

func (s sequence) req(i int) request { return s.distinct[s.slot(i)] }

// plain wraps a sequence of requests that need not be shared.
func plain(reqs []request) sequence { return sequence{distinct: reqs} }

const (
	routeFixedPoint = "/v1/fixedpoint"
	routeODE        = "/v1/ode"
	routeSimulate   = "/v1/simulate"
)

// kind groups workloads by the oracle that checks them.
type kind int

const (
	kindHot  kind = iota // every body equals the bytes verified during setup
	kindCold             // bodies equal an in-process solve, byte for byte
	kindSim              // bodies equal an in-process replication set, minus wall-clock fields
)

// workload is one traffic mix. Every run of a workload sends a fixed
// request sequence, generated from the seed and sized by the nominal run
// length: the count depends on --seconds, never on how fast the host is.
type workload struct {
	name string
	kind kind
	// sequence returns the timed requests for a seed.
	sequence func(seed uint64, seconds float64) sequence
	// warmup returns the requests setup sends once per server before the
	// timed phase: the work a user pays once.
	warmup func() []request
}

var workloads = []workload{
	{name: "solve-hot", kind: kindHot, sequence: hotSequence, warmup: hotSet},
	{name: "solve-cold", kind: kindCold, sequence: coldSequence, warmup: solveWarmup},
	{name: "simulate", kind: kindSim, sequence: simSequence, warmup: simWarmup},
	{name: "simulate-scale", kind: kindSim, sequence: scaleSequence, warmup: scaleWarmup},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// Nominal request rates on a 2-vCPU host. They only size the fixed request
// counts so that a run lasts about --seconds; they are constants, so two
// runs with the same arguments always send the same requests.
const (
	hotRate   = 20000 // requests/s, solve-hot
	coldRate  = 260   // requests/s, solve-cold
	simRate   = 33    // requests/s, simulate
	scaleRate = 28    // requests/s, simulate-scale
)

// newRand returns the generator of one seeded decision stream; stream
// separates independent draws made from the same seed.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// rounds returns how many whole rounds of per requests fill seconds at rate.
func rounds(seconds float64, rate, per int) int {
	n := int(math.Ceil(seconds * float64(rate) / float64(per)))
	if n < 1 {
		n = 1
	}
	return n
}

// stratified returns count draws in [0, 1), one uniform draw from each of
// count equal strata, in seeded order: seeded values whose spread does not
// depend on the seed.
func stratified(r *rand.Rand, count int) []float64 {
	out := make([]float64, count)
	for i, k := range r.Perm(count) {
		out[i] = (float64(k) + r.Float64()) / float64(count)
	}
	return out
}

// jitter scales a nominal size by a factor in [1-horizonJitter, 1+horizonJitter).
func jitter(nominal, u float64) float64 {
	return math.Round(nominal * (1 - horizonJitter + 2*horizonJitter*u))
}

// horizonJitter spreads each simulate cell's horizon around its nominal
// value, so per-request costs form a continuum rather than a few classes
// whose boundaries a latency quantile could straddle.
const horizonJitter = 0.25

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the benchmark marshals only its own plain structs
	}
	return b
}

func fixedPointRequest(model string, lambda float64) request {
	s := experiments.FixedPointSpec{Model: model, Lambda: lambda}
	if model == "multisteal" {
		s.T = 4 // multisteal takes K = 2 tasks and needs T >= 2K
	}
	return request{route: routeFixedPoint, body: mustJSON(s)}
}

func odeRequest(model string, lambda float64) request {
	return request{route: routeODE, body: mustJSON(experiments.ODESpec{Model: model, Lambda: lambda})}
}

// hotLambdas are the arrival rates of the solve-hot set.
var hotLambdas = []float64{0.5, 0.7, 0.8}

// hotSet is every fixed-point model and every ODE model at each hot λ:
// 51 specs that setup solves once and the timed phase only re-reads.
func hotSet() []request {
	var set []request
	for _, l := range hotLambdas {
		for _, m := range experiments.FixedPointModels {
			set = append(set, fixedPointRequest(m, l))
		}
		for _, m := range experiments.ODEModels {
			set = append(set, odeRequest(m, l))
		}
	}
	return set
}

func hotSequence(seed uint64, seconds float64) sequence {
	set := hotSet() // 51 specs, so a uint8 names each
	n := int(math.Ceil(seconds * hotRate))
	if n < len(set) {
		n = len(set)
	}
	r := newRand(seed, 1)
	at := make([]uint8, n)
	for i := range at {
		at[i] = uint8(r.IntN(len(set)))
	}
	return sequence{distinct: set, at: at}
}

// solveWarmup warms the solve path with one light spec of each route that
// no cold request can repeat (λ printed to 6 digits never equals 0.25).
func solveWarmup() []request {
	return []request{fixedPointRequest("simple", 0.25), odeRequest("simple", 0.25)}
}

// coldLambdaMax caps λ per model so that no single cold solve exceeds
// about a second; models absent here use the workload maximum.
var coldLambdaMax = map[string]float64{"stages": 0.7, "rebalance": 0.7}

const (
	coldLambdaLo = 0.5
	coldLambdaHi = 0.85
	coldODEPer   = 2 // ODE requests per round of 13 fixed-point requests
)

// coldSequence sends every fixed-point model once per round plus two ODE
// requests, so about 1 request in 8 is an ODE. Each model's λ values are
// stratified over its range — one draw per stratum, strata in seeded order
// — so the total solve work barely depends on the seed while no key ever
// repeats.
func coldSequence(seed uint64, seconds float64) sequence {
	per := len(experiments.FixedPointModels) + coldODEPer
	nr := rounds(seconds, coldRate, per)
	r := newRand(seed, 2)
	seen := map[string]bool{}
	draw := func(route, model string, hi float64, count int) []request {
		out := make([]request, count)
		strata := stratified(r, count)
		for i := range out {
			u := strata[i]
			for bump := 0; ; bump++ {
				l := math.Round((coldLambdaLo+u*(hi-coldLambdaLo))*1e6+float64(bump)) / 1e6
				var q request
				if route == routeODE {
					q = odeRequest(model, l)
				} else {
					q = fixedPointRequest(model, l)
				}
				if key := route + string(q.body); !seen[key] {
					seen[key] = true
					out[i] = q
					break
				}
			}
		}
		return out
	}
	var seq []request
	for _, m := range experiments.FixedPointModels {
		hi := coldLambdaHi
		if v, ok := coldLambdaMax[m]; ok {
			hi = v
		}
		seq = append(seq, draw(routeFixedPoint, m, hi, nr)...)
	}
	odes := nr * coldODEPer
	for i, m := range experiments.ODEModels {
		count := odes / len(experiments.ODEModels)
		if i < odes%len(experiments.ODEModels) {
			count++
		}
		seq = append(seq, draw(routeODE, m, coldLambdaHi, count)...)
	}
	r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return plain(seq)
}

// simBody is the JSON of one /v1/simulate request; zero fields are omitted
// so the server applies its own defaults to them.
type simBody struct {
	Engine  string  `json:"engine,omitempty"`
	Tracked int     `json:"tracked,omitempty"`
	N       int     `json:"n"`
	Lambda  float64 `json:"lambda"`
	Policy  string  `json:"policy"`
	T       int     `json:"t,omitempty"`
	D       int     `json:"d,omitempty"`
	Half    bool    `json:"half,omitempty"`
	Horizon float64 `json:"horizon"`
	Warmup  float64 `json:"warmup"`
	Reps    int     `json:"reps"`
	Seed    uint64  `json:"seed"`
}

func simRequest(b simBody) request { return request{route: routeSimulate, body: mustJSON(b)} }

// simPolicy is one stealing discipline of the paper's tables.
type simPolicy struct {
	policy string
	t, d   int
	half   bool
}

var (
	simNs       = []int{16, 64, 128}
	simLambdas  = []float64{0.5, 0.8, 0.95}
	simPolicies = []simPolicy{
		{policy: "none"},
		{policy: "steal", t: 2},
		{policy: "steal", t: 3},
		{policy: "steal", t: 2, d: 2},
		{policy: "steal", t: 2, half: true},
	}
)

const (
	simHorizon = 1000
	simWarm    = 100
	simReps    = 4
)

// simSequence sends whole rounds of the 45 table-shaped cells (3 n × 3 λ
// × 5 policies), each round in seeded order and every cell on a fresh
// seed, so every run does the same simulation work on distinct keys.
func simSequence(seed uint64, seconds float64) sequence {
	per := len(simNs) * len(simLambdas) * len(simPolicies)
	nr := rounds(seconds, simRate, per)
	r := newRand(seed, 3)
	jit := make([][]float64, per)
	for c := range jit {
		jit[c] = stratified(r, nr)
	}
	var seq []request
	for round := 0; round < nr; round++ {
		for _, c := range r.Perm(per) {
			n := simNs[c%len(simNs)]
			l := simLambdas[c/len(simNs)%len(simLambdas)]
			p := simPolicies[c/(len(simNs)*len(simLambdas))]
			seq = append(seq, simRequest(simBody{
				N: n, Lambda: l, Policy: p.policy, T: p.t, D: p.d, Half: p.half,
				Horizon: jitter(simHorizon, jit[c][round]), Warmup: simWarm, Reps: simReps,
				Seed: uint64(len(seq)+1)<<32 | uint64(r.Uint32()),
			}))
		}
	}
	return plain(seq)
}

// simWarmup runs one small cell with one replication per pool worker.
func simWarmup() []request {
	return []request{simRequest(simBody{N: 16, Lambda: 0.5, Policy: "steal", T: 2,
		Horizon: 200, Warmup: 20, Reps: workers(), Seed: 1})}
}

// simulate-scale cells: DES at the serving cap n = 4096 and the hybrid
// engine at n = 10⁶, sized so each kind takes about half the busy time.
const (
	scaleDESN        = 4096
	scaleDESHorizon  = 40
	scaleDESWarmup   = 20
	scaleDESReps     = 2
	scaleHybridN     = 1_000_000
	scaleTracked     = 256
	scaleHybHorizon  = 200
	scaleHybWarmup   = 20
	scaleHybridReps  = 1
	scaleLambdaLow   = 0.7
	scaleLambdaHigh  = 0.8
	scaleRequestsPer = 2 // one DES and one hybrid request per pair
)

func scaleDES(lambda float64, seed uint64, reps int, horizon float64) request {
	return simRequest(simBody{N: scaleDESN, Lambda: lambda, Policy: "steal", T: 2,
		Horizon: horizon, Warmup: scaleDESWarmup, Reps: reps, Seed: seed})
}

func scaleHybrid(lambda float64, seed uint64, reps int, horizon float64) request {
	return simRequest(simBody{Engine: "hybrid", Tracked: scaleTracked, N: scaleHybridN,
		Lambda: lambda, Policy: "steal", T: 2,
		Horizon: horizon, Warmup: scaleHybWarmup, Reps: reps, Seed: seed})
}

// scaleSequence alternates DES and hybrid requests. Within each pair one
// kind runs at the low λ and the other at the high λ, in seeded order.
func scaleSequence(seed uint64, seconds float64) sequence {
	np := rounds(seconds, scaleRate, scaleRequestsPer)
	r := newRand(seed, 4)
	jitDES, jitHyb := stratified(r, np), stratified(r, np)
	var seq []request
	for p := 0; p < np; p++ {
		lDES, lHyb := scaleLambdaLow, scaleLambdaHigh
		if r.IntN(2) == 1 {
			lDES, lHyb = lHyb, lDES
		}
		des := scaleDES(lDES, uint64(2*p+1)<<32|uint64(r.Uint32()), scaleDESReps, jitter(scaleDESHorizon, jitDES[p]))
		hyb := scaleHybrid(lHyb, uint64(2*p+2)<<32|uint64(r.Uint32()), scaleHybridReps, jitter(scaleHybHorizon, jitHyb[p]))
		seq = append(seq, des, hyb)
	}
	return plain(seq)
}

// scaleWarmup runs one replication per pool worker of each engine.
func scaleWarmup() []request {
	return []request{scaleDES(0.5, 1, workers(), scaleDESHorizon), scaleHybrid(0.5, 1, workers(), scaleHybHorizon)}
}

// digest fingerprints a request sequence: the same seed must give the same
// digest, another seed another one.
func digest(seq sequence) string {
	h := sha256.New()
	for i := 0; i < seq.len(); i++ {
		q := seq.req(i)
		h.Write([]byte(q.route))
		h.Write([]byte{'\n'})
		h.Write(q.body)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
