package control

import (
	"encoding/json"
	"fmt"
)

// This file implements Snapshotter for every controller in the package.
// Each state struct lists exactly the fields the controller's Decide
// mutates; configuration (gains, models, rule bases) is never part of a
// snapshot — a snapshot is restored into an identically configured
// controller.

type onOffState struct {
	On bool `json:"on"`
	// Battery-thermostat latches (cold-climate thermal network).
	BattHeat  bool `json:"batt_heat,omitempty"`
	BattChill bool `json:"batt_chill,omitempty"`
}

// StateSnapshot implements Snapshotter.
func (c *OnOff) StateSnapshot() (json.RawMessage, error) {
	return json.Marshal(onOffState{On: c.on, BattHeat: c.batt.heatOn, BattChill: c.batt.chillOn})
}

// RestoreState implements Snapshotter.
func (c *OnOff) RestoreState(raw json.RawMessage) error {
	var st onOffState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("control: on/off state: %w", err)
	}
	c.on = st.On
	c.batt.heatOn, c.batt.chillOn = st.BattHeat, st.BattChill
	return nil
}

type pidState struct {
	Integral float64 `json:"integral"`
	PrevErr  float64 `json:"prev_err"`
	HasPrev  bool    `json:"has_prev"`
}

// StateSnapshot implements Snapshotter.
func (c *PID) StateSnapshot() (json.RawMessage, error) {
	return json.Marshal(pidState{Integral: c.integral, PrevErr: c.prevErr, HasPrev: c.hasPrev})
}

// RestoreState implements Snapshotter.
func (c *PID) RestoreState(raw json.RawMessage) error {
	var st pidState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("control: pid state: %w", err)
	}
	c.integral, c.prevErr, c.hasPrev = st.Integral, st.PrevErr, st.HasPrev
	return nil
}

type fuzzyState struct {
	PrevErr float64 `json:"prev_err"`
	HasPrev bool    `json:"has_prev"`
	// Battery-thermostat latches (cold-climate thermal network).
	BattHeat  bool `json:"batt_heat,omitempty"`
	BattChill bool `json:"batt_chill,omitempty"`
}

// StateSnapshot implements Snapshotter.
func (c *Fuzzy) StateSnapshot() (json.RawMessage, error) {
	return json.Marshal(fuzzyState{PrevErr: c.prevErr, HasPrev: c.hasPrev, BattHeat: c.batt.heatOn, BattChill: c.batt.chillOn})
}

// RestoreState implements Snapshotter.
func (c *Fuzzy) RestoreState(raw json.RawMessage) error {
	var st fuzzyState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("control: fuzzy state: %w", err)
	}
	c.prevErr, c.hasPrev = st.PrevErr, st.HasPrev
	c.batt.heatOn, c.batt.chillOn = st.BattHeat, st.BattChill
	return nil
}

// StateSnapshot implements Snapshotter: a Constant has no mutable state.
func (c *Constant) StateSnapshot() (json.RawMessage, error) {
	return json.RawMessage(`{}`), nil
}

// RestoreState implements Snapshotter.
func (c *Constant) RestoreState(raw json.RawMessage) error {
	var st struct{}
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("control: constant state: %w", err)
	}
	return nil
}

// supervisorState serializes the ladder position, the hysteresis
// counters, the transition log, the sensor sanitizer's hold-last buffer,
// and every stage controller's own state: everything a bit-for-bit
// resume of the ladder needs.
type supervisorState struct {
	ladderState
	Stages []json.RawMessage `json:"stages"`
}

// StateSnapshot implements Snapshotter. Every stage controller must
// itself implement Snapshotter; a ladder with an opaque stage cannot
// guarantee a bit-for-bit resume.
func (s *Supervisor) StateSnapshot() (json.RawMessage, error) {
	st := supervisorState{ladderState: s.st, Stages: make([]json.RawMessage, len(s.stages))}
	for i := range s.stages {
		sn, ok := s.stages[i].Controller.(Snapshotter)
		if !ok {
			return nil, fmt.Errorf("control: supervisor stage %q does not support state snapshots", s.stages[i].Name)
		}
		raw, err := sn.StateSnapshot()
		if err != nil {
			return nil, fmt.Errorf("control: supervisor stage %q: %w", s.stages[i].Name, err)
		}
		st.Stages[i] = raw
	}
	return json.Marshal(st)
}

// RestoreState implements Snapshotter.
func (s *Supervisor) RestoreState(raw json.RawMessage) error {
	var st supervisorState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("control: supervisor state: %w", err)
	}
	if len(st.Stages) != len(s.stages) {
		return fmt.Errorf("control: supervisor state has %d stages, ladder has %d", len(st.Stages), len(s.stages))
	}
	if st.Level < 0 || st.Level >= len(s.stages) {
		return fmt.Errorf("control: supervisor state level %d outside ladder", st.Level)
	}
	for i := range s.stages {
		sn, ok := s.stages[i].Controller.(Snapshotter)
		if !ok {
			return fmt.Errorf("control: supervisor stage %q does not support state snapshots", s.stages[i].Name)
		}
		if err := sn.RestoreState(st.Stages[i]); err != nil {
			return fmt.Errorf("control: supervisor stage %q: %w", s.stages[i].Name, err)
		}
	}
	s.st = st.ladderState
	// Re-assert the ladder gauge: a restored run whose original demoted
	// before the checkpoint would otherwise report level 0 until the next
	// transition. Instruments are nil-safe when no sink is bound.
	s.telLevel.Set(float64(st.Level))
	return nil
}
