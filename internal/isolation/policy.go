// Package isolation provides the CPU isolation policies the evaluation
// compares (§6.1): no isolation, the two static OS mechanisms (core
// restriction and cycle capping, §6.1.4), and CPU blind isolation
// itself, all behind one Policy interface so experiment runners can
// sweep them uniformly.
//
// The static policies are thin veneers over the osmodel Job knobs —
// exactly the Windows Job Object / Linux cgroups mechanisms the paper
// tests — while Blind delegates to the PerfIso controller in
// internal/core.
package isolation

import (
	"fmt"

	"perfiso/internal/core"
	"perfiso/internal/cpumodel"
	"perfiso/internal/osmodel"
	"perfiso/internal/sim"
)

// Policy configures how a secondary job is restricted for the duration
// of an experiment.
type Policy interface {
	// Name identifies the policy in tables and logs.
	Name() string
	// Install applies the policy to the secondary job. Dynamic policies
	// begin polling here; static policies set their knob once.
	Install(os *osmodel.OS, job *osmodel.Job) error
	// Uninstall releases the job back to the full machine and stops any
	// polling.
	Uninstall(os *osmodel.OS, job *osmodel.Job)
}

// None is the no-isolation baseline (§6.1.2): the secondary competes
// for every core under the ordinary scheduler.
type None struct{}

// Name implements Policy.
func (None) Name() string { return "none" }

// Install implements Policy; no restriction is applied.
func (None) Install(os *osmodel.OS, job *osmodel.Job) error { return nil }

// Uninstall implements Policy.
func (None) Uninstall(os *osmodel.OS, job *osmodel.Job) {}

// StaticCores restricts the secondary to a fixed subset of cores
// (§6.1.4, "Restricting CPU cores"): the primary keeps exclusive access
// to the remainder but also competes for the secondary's cores.
type StaticCores struct {
	// Cores is the size of the secondary's fixed subset.
	Cores int
}

// Name implements Policy.
func (p StaticCores) Name() string { return fmt.Sprintf("cores-%d", p.Cores) }

// Install implements Policy: the secondary is packed onto the
// highest-numbered cores, mirroring how blind isolation packs its grant
// so the two are directly comparable.
func (p StaticCores) Install(os *osmodel.OS, job *osmodel.Job) error {
	if p.Cores <= 0 || p.Cores > os.Cores() {
		return fmt.Errorf("isolation: static core count %d out of range (1..%d)", p.Cores, os.Cores())
	}
	job.SetAffinity(cpumodel.TopCores(os.Cores(), p.Cores))
	return nil
}

// Uninstall implements Policy.
func (p StaticCores) Uninstall(os *osmodel.OS, job *osmodel.Job) {
	job.SetAffinity(cpumodel.AllCores(os.Cores()))
}

// CycleCap restricts the secondary to a fraction of total CPU cycles
// (§6.1.4, "Restricting CPU cycles"): a windowed duty cycle, the
// Windows CPU rate control / cgroups cpu.cfs_quota mechanism.
type CycleCap struct {
	// Fraction of machine cycles granted per window (0.05 = 5%).
	Fraction float64
	// Window is the enforcement window; zero selects DefaultCycleWindow.
	Window sim.Duration
}

// DefaultCycleWindow mirrors Windows CPU rate control, which enforces
// job cycle budgets over a long scheduling interval (~600 ms): the job
// burns its whole budget at the start of each window and is frozen for
// the remainder. The coarse window is precisely why cycle capping fails
// for bursty services (§6.1.4): during the burn phase the machine is
// saturated and short-lived primary workers queue behind the capped
// job, and a larger cap means a longer saturated stretch.
const DefaultCycleWindow = 600 * sim.Millisecond

// Name implements Policy.
func (p CycleCap) Name() string { return fmt.Sprintf("cycles-%d%%", int(p.Fraction*100+0.5)) }

// Install implements Policy.
func (p CycleCap) Install(os *osmodel.OS, job *osmodel.Job) error {
	if p.Fraction <= 0 || p.Fraction > 1 {
		return fmt.Errorf("isolation: cycle fraction %.3f out of range (0,1]", p.Fraction)
	}
	job.SetCycleCap(p.Fraction, p.EffectiveWindow())
	return nil
}

// EffectiveWindow is the enforcement window Install sets: Window, or
// DefaultCycleWindow when Window is zero.
func (p CycleCap) EffectiveWindow() sim.Duration {
	if p.Window == 0 {
		return DefaultCycleWindow
	}
	return p.Window
}

// Uninstall implements Policy.
func (p CycleCap) Uninstall(os *osmodel.OS, job *osmodel.Job) {
	job.SetCycleCap(0, 0)
}

// Blind runs CPU blind isolation (§3.1) through the PerfIso controller
// core. Only the CPU governor is engaged; experiments that need the
// full controller (I/O, memory, egress) construct core.Controller
// directly.
type Blind struct {
	// BufferCores is B; zero selects the published default of 8.
	BufferCores int
	// PollInterval overrides the default 100 µs loop cadence when set.
	PollInterval sim.Duration
	// GrowHoldoff overrides the default grow rate limit when set.
	GrowHoldoff sim.Duration

	gov *core.BlindIsolation
}

// Name implements Policy.
func (p *Blind) Name() string { return fmt.Sprintf("blind-%d", p.bufferOrDefault()) }

func (p *Blind) bufferOrDefault() int {
	if p.BufferCores > 0 {
		return p.BufferCores
	}
	return core.DefaultConfig().BufferCores
}

// Config is the governor configuration Install uses: the published
// defaults, with each of BufferCores, PollInterval and GrowHoldoff
// that is set in place of its default.
func (p *Blind) Config() core.Config {
	cfg := core.DefaultConfig()
	cfg.BufferCores = p.bufferOrDefault()
	if p.PollInterval > 0 {
		cfg.PollInterval = p.PollInterval
	}
	if p.GrowHoldoff > 0 {
		cfg.GrowHoldoff = p.GrowHoldoff
	}
	return cfg
}

// Install implements Policy: it builds and starts the blind-isolation
// governor over the job.
func (p *Blind) Install(os *osmodel.OS, job *osmodel.Job) error {
	cfg := p.Config()
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.BufferCores >= os.Cores() {
		return fmt.Errorf("isolation: %d buffer cores leave nothing on a %d-core machine",
			cfg.BufferCores, os.Cores())
	}
	p.gov = core.NewBlindIsolation(os, job, cfg)
	p.gov.Start(cfg.PollInterval)
	return nil
}

// Uninstall implements Policy.
func (p *Blind) Uninstall(os *osmodel.OS, job *osmodel.Job) {
	if p.gov != nil {
		p.gov.Stop()
		p.gov.Disable()
		p.gov = nil
	}
}

// Governor exposes the running blind-isolation instance (nil before
// Install); experiments read its counters and allocation series.
func (p *Blind) Governor() *core.BlindIsolation { return p.gov }
