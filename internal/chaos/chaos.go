// Package chaos is the repository's deterministic fault-injection layer:
// a seed-driven Injector that, at named call sites, can delay execution,
// return an injected error, panic, or perturb a numeric state vector, each
// with an independently configured probability.
//
// Design constraints, in order:
//
//   - Inert at zero config. A nil *Injector and an Injector built from the
//     zero Config both answer every probe with "no fault" without drawing a
//     random number, so production binaries pay one nil check per seam.
//   - Deterministic. Every site draws from its own RNG stream derived from
//     (Config.Seed, site name), so the k-th probe of a site makes the same
//     decision in every run with that seed, regardless of how other sites
//     interleave. Concurrency can reorder probes *within* one site (two
//     requests racing to the same seam), so per-site sequences — not global
//     wall-clock order — are the reproducibility unit.
//   - Observable. Every injected fault increments a per-(site, kind)
//     counter; Each exposes them for the serving layer's /metrics endpoint,
//     which is how the chaos harness proves that a storm's faults really
//     flowed through the seams.
//
// The three product seams (see DESIGN.md §11) are the HTTP handler chain
// (internal/serve), the scheduler pool's replication path (internal/sched),
// and the numeric solver's iterate hook (internal/solver via
// meanfield.SolveOptions.Perturb).
package chaos

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/rng"
)

// Fault kinds as they appear in injection counters and metric labels.
const (
	KindLatency   = "latency"
	KindError     = "error"
	KindPanic     = "panic"
	KindPerturb   = "perturb"
	KindPartition = "partition"
)

// ErrInjected is wrapped by every error the Injector fabricates, so
// resilience code can distinguish self-inflicted faults from organic ones
// (both must be handled identically; only tests and metrics care).
var ErrInjected = errors.New("chaos: injected error")

// ErrPartitioned is the error an injected network partition fabricates. It
// wraps ErrInjected (it is still self-inflicted) but keeps its own identity
// so the cluster layer can count dropped RPCs separately from organic
// transport failures.
var ErrPartitioned = fmt.Errorf("%w: network partition", ErrInjected)

// PanicValue is the value an injected panic carries, so recovery layers can
// label the fault in logs while still treating it as a real panic.
type PanicValue struct {
	Site string
}

func (p PanicValue) String() string { return "chaos: injected panic at " + p.Site }

// Config tunes an Injector. The zero value disables every fault kind.
type Config struct {
	// Seed selects the deterministic decision streams. Two injectors with
	// the same Seed and probabilities make identical per-site decision
	// sequences.
	Seed uint64
	// PLatency, PError, PPanic, PPerturb, PPartition are the per-probe
	// injection probabilities in [0, 1] for each fault kind. Partition
	// faults drop cluster RPCs at their per-peer sites (see
	// internal/cluster); the other kinds never fire at partition sites and
	// vice versa, so one Config can drive both serving and cluster seams.
	PLatency   float64
	PError     float64
	PPanic     float64
	PPerturb   float64
	PPartition float64
	// Latency is the injected delay (default 5ms when PLatency > 0).
	Latency time.Duration
}

// WithDefaults returns c with a zero Latency replaced by its default.
func (c Config) WithDefaults() Config {
	if c.Latency == 0 {
		c.Latency = 5 * time.Millisecond
	}
	return c
}

// Enabled reports whether any fault kind has a positive probability.
func (c Config) Enabled() bool {
	return c.PLatency > 0 || c.PError > 0 || c.PPanic > 0 || c.PPerturb > 0 ||
		c.PPartition > 0
}

// Validate rejects probabilities outside [0, 1] and non-finite values, the
// kind of flag typo that would otherwise silently disable a chaos run.
func (c Config) Validate() error {
	for name, p := range map[string]float64{
		"latency": c.PLatency, "error": c.PError, "panic": c.PPanic,
		"perturb": c.PPerturb, "partition": c.PPartition,
	} {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return fmt.Errorf("chaos: probability for %s = %v outside [0, 1]", name, p)
		}
	}
	if c.Latency < 0 {
		return fmt.Errorf("chaos: negative latency %v", c.Latency)
	}
	return nil
}

// site is the per-call-site state: one decision stream plus fault counts.
type site struct {
	src    rng.Source
	counts map[string]uint64
}

// Injector decides, probe by probe, whether to inject a fault. The nil
// Injector is valid and never injects; methods are safe for concurrent use.
type Injector struct {
	cfg      Config
	disabled bool // flipped by Disable for breaker-recovery drills

	mu    sync.Mutex
	sites map[string]*site
}

// New builds an Injector from cfg. It panics on an invalid Config (chaos is
// operator-driven; a bad probability is a startup error, not a request
// error). A Config with no positive probability yields an inert injector.
func New(cfg Config) *Injector {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Injector{cfg: cfg.WithDefaults(), sites: make(map[string]*site)}
}

// Disable (or re-enable) all injection at runtime. Used by recovery drills:
// inject until the breaker opens, disable, and watch the half-open probes
// close it. Safe for concurrent use with the probe methods.
func (in *Injector) SetDisabled(d bool) {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.disabled = d
	in.mu.Unlock()
}

// decide draws the next decision for (siteName, kind) and counts a hit.
// p <= 0 short-circuits before the lock and the RNG, which is what makes
// the zero Config (and the nil Injector) genuinely free. Kinds with
// positive probability share the site's stream, so a site's decision
// sequence is deterministic for a fixed Config — the unit of
// reproducibility the chaos harness relies on.
func (in *Injector) decide(siteName, kind string, p float64) bool {
	if in == nil || p <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.disabled {
		return false
	}
	st := in.sites[siteName]
	if st == nil {
		st = &site{counts: make(map[string]uint64)}
		st.src.Reseed(rng.DeriveSeed(in.cfg.Seed, int(siteHash(siteName))))
		in.sites[siteName] = st
	}
	if st.src.Float64() >= p {
		return false
	}
	st.counts[kind]++
	return true
}

// siteHash folds a site name into a stream index (FNV-1a, 31-bit).
func siteHash(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h & 0x7fffffff
}

// Delay returns the latency to inject at the site (0 = none).
func (in *Injector) Delay(siteName string) time.Duration {
	if !in.decide(siteName, KindLatency, in.p().PLatency) {
		return 0
	}
	return in.cfg.Latency
}

// Sleep injects the site's latency fault by sleeping, if one is due.
func (in *Injector) Sleep(siteName string) {
	if d := in.Delay(siteName); d > 0 {
		time.Sleep(d)
	}
}

// Err returns an injected error for the site, or nil.
func (in *Injector) Err(siteName string) error {
	if !in.decide(siteName, KindError, in.p().PError) {
		return nil
	}
	return fmt.Errorf("%w at %s", ErrInjected, siteName)
}

// MaybePanic panics with a PanicValue if the site draws a panic fault.
func (in *Injector) MaybePanic(siteName string) {
	if in.decide(siteName, KindPanic, in.p().PPanic) {
		panic(PanicValue{Site: siteName})
	}
}

// Perturb corrupts the state vector x (drives it toward NaN) if the site
// draws a perturbation fault, and reports whether it did. This is the
// numeric seam: downstream divergence guards must convert the poisoned
// state into a typed ErrDiverged instead of a garbage table.
func (in *Injector) Perturb(siteName string, x []float64) bool {
	if !in.decide(siteName, KindPerturb, in.p().PPerturb) {
		return false
	}
	if len(x) > 0 {
		x[0] = math.NaN()
	}
	return true
}

// Partitioned reports whether the site draws a partition fault: the RPC it
// guards must be dropped without touching the network, as if the peer were
// unreachable. Sites are per peer ("cluster.rpc:<peer>") so each link has
// its own deterministic decision stream — one seed reproduces the same
// partition pattern per link regardless of how other links interleave.
func (in *Injector) Partitioned(siteName string) bool {
	return in.decide(siteName, KindPartition, in.p().PPartition)
}

// PerturbFunc adapts Perturb to the solver's Perturb hook shape for one
// site. A nil receiver yields a nil func, which the solver treats as "no
// hook" — zero overhead on the clean path.
func (in *Injector) PerturbFunc(siteName string) func(x []float64) {
	if in == nil || in.cfg.PPerturb <= 0 {
		return nil
	}
	return func(x []float64) { in.Perturb(siteName, x) }
}

// p returns the effective probabilities (zero Config for a nil receiver).
func (in *Injector) p() Config {
	if in == nil {
		return Config{}
	}
	return in.cfg
}

// Each invokes fn for every (site, kind) counter in deterministic order —
// sites sorted by name, kinds sorted within a site. The serving layer turns
// these into wsserved_chaos_injections_total{site, kind} samples.
func (in *Injector) Each(fn func(siteName, kind string, n uint64)) {
	if in == nil {
		return
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	names := make([]string, 0, len(in.sites))
	for name := range in.sites {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st := in.sites[name]
		kinds := make([]string, 0, len(st.counts))
		for k := range st.counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		for _, k := range kinds {
			fn(name, k, st.counts[k])
		}
	}
}

// Count returns the number of injected faults of one kind at one site.
func (in *Injector) Count(siteName, kind string) uint64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.sites[siteName]
	if st == nil {
		return 0
	}
	return st.counts[kind]
}

// Total returns the number of injected faults across all sites and kinds.
func (in *Injector) Total() uint64 {
	var n uint64
	in.Each(func(_, _ string, c uint64) { n += c })
	return n
}
