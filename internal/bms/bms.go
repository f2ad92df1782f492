// Package bms implements the Battery Management System: it monitors the
// pack during a drive, enforces overcharge/overdischarge and power-limit
// protections (paper Sec. I), accumulates the cycle stress statistics
// (SoCdev, SoCavg) online, and evaluates the SoH degradation that the
// climate controller optimizes against (Algorithm 1, lines 20 and 23).
package bms

import (
	"errors"
	"fmt"

	"evclimate/internal/battery"
)

// Config assembles a BMS.
type Config struct {
	// Pack is the battery pack parameter set.
	Pack battery.Params
	// SoH is the degradation model parameter set.
	SoH battery.SoHParams
	// InitialSoC is the SoC at drive start, percent.
	InitialSoC float64
	// MinSoC is the overdischarge protection threshold, percent.
	MinSoC float64
	// MaxSoC is the overcharge protection threshold, percent.
	MaxSoC float64
	// MaxDischargeW and MaxChargeW limit pack power (both positive).
	MaxDischargeW, MaxChargeW float64
}

// DefaultConfig returns a Leaf-pack BMS starting from a 90 % charge.
func DefaultConfig() Config {
	return Config{
		Pack:          battery.LeafPack(),
		SoH:           battery.DefaultSoHParams(),
		InitialSoC:    90,
		MinSoC:        10,
		MaxSoC:        100,
		MaxDischargeW: 90e3,
		MaxChargeW:    40e3,
	}
}

// Validate reports invalid configurations.
func (c *Config) Validate() error {
	if err := c.Pack.Validate(); err != nil {
		return err
	}
	if err := c.SoH.Validate(); err != nil {
		return err
	}
	switch {
	case c.InitialSoC < 0 || c.InitialSoC > 100:
		return fmt.Errorf("bms: initial SoC %v outside [0, 100]", c.InitialSoC)
	case c.MinSoC < 0 || c.MaxSoC > 100 || c.MinSoC >= c.MaxSoC:
		return fmt.Errorf("bms: SoC window [%v, %v] invalid", c.MinSoC, c.MaxSoC)
	case c.MaxDischargeW <= 0 || c.MaxChargeW < 0:
		return errors.New("bms: power limits must be positive (charge nonnegative)")
	}
	return nil
}

// Protection events counted by the BMS.
type Events struct {
	// DischargeClipped counts steps where the discharge request exceeded
	// MaxDischargeW.
	DischargeClipped int
	// ChargeClipped counts steps where regen exceeded MaxChargeW.
	ChargeClipped int
	// OverdischargeBlocked counts steps denied because SoC ≤ MinSoC.
	OverdischargeBlocked int
	// OverchargeBlocked counts regen steps denied because SoC ≥ MaxSoC.
	OverchargeBlocked int
}

// BMS monitors one pack through a drive.
type BMS struct {
	cfg    Config
	pack   *battery.Pack
	cycle  battery.SoCStats
	events Events
}

// New builds a BMS and its pack.
func New(cfg Config) (*BMS, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pack, err := battery.NewPack(cfg.Pack, cfg.InitialSoC)
	if err != nil {
		return nil, err
	}
	b := &BMS{cfg: cfg, pack: pack}
	b.cycle.Add(cfg.InitialSoC)
	return b, nil
}

// SoC returns the current state of charge in percent.
func (b *BMS) SoC() float64 { return b.pack.SoC() }

// Events returns the protection event counters.
func (b *BMS) Events() Events { return b.events }

// Step applies a power request (W, positive = discharge) for dt seconds.
// The BMS clips the request to the pack power limits and blocks requests
// that would violate the SoC protection window, then updates the pack and
// the cycle statistics. It returns the power actually applied and the new
// SoC.
func (b *BMS) Step(requestW, dt float64) (appliedW, soc float64) {
	applied := requestW
	if applied > b.cfg.MaxDischargeW {
		applied = b.cfg.MaxDischargeW
		b.events.DischargeClipped++
	}
	if applied < -b.cfg.MaxChargeW {
		applied = -b.cfg.MaxChargeW
		b.events.ChargeClipped++
	}
	if applied > 0 && b.pack.SoC() <= b.cfg.MinSoC {
		applied = 0
		b.events.OverdischargeBlocked++
	}
	if applied < 0 && b.pack.SoC() >= b.cfg.MaxSoC {
		applied = 0
		b.events.OverchargeBlocked++
	}
	soc = b.pack.Step(applied, dt)
	b.cycle.Add(soc)
	return applied, soc
}

// CycleStats returns SoCdev and SoCavg (Eqs. 16–17) over the initial SoC
// and every SoC Step has reached.
func (b *BMS) CycleStats() (dev, avg float64, err error) {
	return b.cycle.Stats()
}

// DeltaSoH evaluates the degradation model (Eq. 15) over the same
// samples — Algorithm 1 line 23.
func (b *BMS) DeltaSoH() (float64, error) {
	return b.cycle.DeltaSoH(&b.cfg.SoH)
}

// State is the BMS's serializable mutable state: everything Step and the
// metrics evaluators touch. The Config is deliberately not part of it —
// a State is restored into a BMS built from the same Config, and the
// restored BMS then steps bit-for-bit like the original.
type State struct {
	// SoC is the pack state of charge, percent.
	SoC float64 `json:"soc"`
	// Cycle is the cycle-statistics accumulator.
	Cycle battery.SoCStats `json:"cycle"`
	// Events are the protection counters.
	Events Events `json:"events"`
}

// State captures the BMS state for checkpointing.
func (b *BMS) State() State {
	return State{SoC: b.pack.SoC(), Cycle: b.cycle, Events: b.events}
}

// SetState replaces the BMS state with a snapshot taken from a BMS with
// the same Config.
func (b *BMS) SetState(st State) error {
	if st.Cycle.N < 1 {
		return errors.New("bms: state has no SoC samples")
	}
	pack, err := battery.NewPack(b.cfg.Pack, st.SoC)
	if err != nil {
		return err
	}
	b.pack = pack
	b.cycle = st.Cycle
	b.events = st.Events
	return nil
}
