package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"evclimate/internal/bms"
	"evclimate/internal/cabin"
	"evclimate/internal/control"
	"evclimate/internal/faults"
	"evclimate/internal/thermal"
)

// CheckpointVersion is the checkpoint schema version; a resume refuses
// checkpoints written by a different schema. Version 2 carries the
// trace in its packed wire form (Trace.MarshalText); version 3 adds the
// MPC's BFGS blocks, which its next decide may start from, so a version 2
// checkpoint would resume an MPC run inexactly.
const CheckpointVersion = 3

// RunOptions are the durability controls of one run. The zero value
// reproduces Run exactly.
type RunOptions struct {
	// Context, when non-nil, is checked once per control step: a canceled
	// or deadline-exceeded context aborts the run with the context's
	// error (wrapped). This is the per-job watchdog hook — wall-clock
	// deadlines become step-granular aborts without any goroutine
	// machinery in the hot loop.
	Context context.Context
	// CheckpointEvery, when positive together with OnCheckpoint, emits a
	// checkpoint after every CheckpointEvery-th completed control step
	// (never after the final step — a finished run needs no checkpoint).
	CheckpointEvery int
	// OnCheckpoint receives each emitted checkpoint; a non-nil error
	// aborts the run. When the Context cancels mid-run, a final
	// checkpoint is flushed through OnCheckpoint before the run returns,
	// so a graceful drain always leaves a resumable state behind.
	OnCheckpoint func(*Checkpoint) error
	// Resume, when non-nil, restores the run to the checkpointed step
	// before the loop starts; the remaining trajectory is bit-for-bit
	// identical to an uninterrupted run. The controller configuration
	// and run Config must match the checkpointing run's.
	Resume *Checkpoint
}

// Checkpoint is the complete serializable state of an in-flight run at a
// control-step boundary: the next step index, the cabin temperature, the
// metric accumulators, the trace so far, the BMS state, the fault
// injector's hold-last buffer, and the controller's opaque state blob.
// encoding/json round-trips finite float64 values exactly, and the
// trace travels as its packed float64 bits, so a checkpoint that passed
// through disk resumes the same bits.
type Checkpoint struct {
	// Version is the checkpoint schema version (CheckpointVersion).
	Version int `json:"version"`
	// Controller is the checkpointing controller's Name, matched on
	// restore so a checkpoint cannot resume under a different controller.
	Controller string `json:"controller"`
	// Step is the next control-step index to execute.
	Step int `json:"step"`
	// CabinC is the cabin temperature at the start of Step.
	CabinC float64 `json:"cabin_c"`
	// HVACJ, MotorJ, TotalJ are the energy accumulators.
	HVACJ  float64 `json:"hvac_j"`
	MotorJ float64 `json:"motor_j"`
	TotalJ float64 `json:"total_j"`
	// ComfortViol, ComfortCount, TrackSq are the comfort-statistics
	// accumulators.
	ComfortViol  float64 `json:"comfort_viol"`
	ComfortCount float64 `json:"comfort_count"`
	TrackSq      float64 `json:"track_sq"`
	// Trace is the trajectory recorded through step Step-1.
	Trace Trace `json:"trace"`
	// BMS is the battery-management state.
	BMS bms.State `json:"bms"`
	// Faults is the injector's hold-last state; nil when the run injects
	// no faults.
	Faults *faults.InjectorState `json:"faults,omitempty"`
	// Thermal is the thermal-network state plus the sim-side thermal
	// accumulators; nil when the run has no thermal network.
	Thermal *ThermalCheckpoint `json:"thermal,omitempty"`
	// CtrlState is the controller's Snapshotter blob.
	CtrlState json.RawMessage `json:"ctrl_state,omitempty"`
}

// ThermalCheckpoint is the serializable thermal-network slice of a
// checkpoint: the network node state plus the sim-side accumulators
// (calendar aging, heat-pump mode counters).
type ThermalCheckpoint struct {
	State       thermal.Snapshot `json:"state"`
	CalendarPct float64          `json:"calendar_pct"`
	HPSteps     int              `json:"hp_steps"`
	PTCSteps    int              `json:"ptc_steps"`
	COPSum      float64          `json:"cop_sum"`
}

// checkpoint captures the lane's complete state at the step-k
// boundary, with tz the cabin temperature at the start of step k. The
// returned checkpoint shares nothing with the run — it can be
// serialized or held across the run's end.
func (ln *batchLane) checkpoint(k int, tz float64) (*Checkpoint, error) {
	snap, ok := ln.ctrl.(control.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("sim: controller %q does not support state snapshots", ln.ctrl.Name())
	}
	ctrlState, err := snap.StateSnapshot()
	if err != nil {
		return nil, fmt.Errorf("sim: controller snapshot: %w", err)
	}
	ck := &Checkpoint{
		Version:      CheckpointVersion,
		Controller:   ln.ctrl.Name(),
		Step:         k,
		CabinC:       tz,
		HVACJ:        ln.hvacJ,
		MotorJ:       ln.motorJ,
		TotalJ:       ln.totalJ,
		ComfortViol:  ln.comfortViol,
		ComfortCount: ln.comfortCount,
		TrackSq:      ln.trackSq,
		Trace:        copyTrace(&ln.res.Trace),
		BMS:          ln.b.State(),
		CtrlState:    ctrlState,
	}
	if ln.inj != nil {
		fs := ln.inj.State()
		ck.Faults = &fs
	}
	if ln.th != nil {
		ck.Thermal = &ThermalCheckpoint{
			State:       ln.th.Snapshot(),
			CalendarPct: ln.calPct,
			HPSteps:     ln.hpSteps,
			PTCSteps:    ln.ptcSteps,
			COPSum:      ln.copSum,
		}
	}
	return ck, nil
}

// restore validates one checkpoint per lane (all at the same step)
// against the run being started, loads them into the lane state and the
// SoA cabin temperatures x, and returns the resumed step index. The
// controllers have already been Reset and had their telemetry bound.
func (br *BatchRunner) restore(lanes []batchLane, x []float64, cks []*Checkpoint) (int, error) {
	if len(cks) != len(lanes) {
		return 0, fmt.Errorf("sim: batch resume has %d checkpoints for %d lanes", len(cks), len(lanes))
	}
	for i, ck := range cks {
		ln := &lanes[i]
		if ck == nil {
			return 0, fmt.Errorf("sim: batch resume lane %d: nil checkpoint", i)
		}
		if ck.Version != CheckpointVersion {
			return 0, fmt.Errorf("sim: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
		}
		if ck.Controller != ln.ctrl.Name() {
			return 0, fmt.Errorf("sim: checkpoint from controller %q cannot resume %q", ck.Controller, ln.ctrl.Name())
		}
		if ck.Step < 0 || ck.Step > br.n {
			return 0, fmt.Errorf("sim: checkpoint step %d outside run of %d steps", ck.Step, br.n)
		}
		if ck.Step != cks[0].Step {
			return 0, fmt.Errorf("sim: batch resume lane %d at step %d, lane 0 at step %d; lanes must share a boundary", i, ck.Step, cks[0].Step)
		}
		if len(ck.Trace.Time) != ck.Step {
			return 0, fmt.Errorf("sim: checkpoint trace has %d steps, expected %d", len(ck.Trace.Time), ck.Step)
		}
		if (ck.Faults != nil) != (ln.inj != nil) {
			return 0, errors.New("sim: checkpoint fault state does not match the run's fault configuration")
		}
		if (ck.Thermal != nil) != (ln.th != nil) {
			return 0, errors.New("sim: checkpoint thermal state does not match the run's thermal configuration")
		}
		snap, ok := ln.ctrl.(control.Snapshotter)
		if !ok {
			return 0, fmt.Errorf("sim: controller %q does not support state snapshots", ln.ctrl.Name())
		}
		if len(ck.CtrlState) == 0 {
			return 0, errors.New("sim: checkpoint is missing the controller state")
		}
		if err := snap.RestoreState(ck.CtrlState); err != nil {
			return 0, fmt.Errorf("sim: controller restore: %w", err)
		}
		if err := ln.b.SetState(ck.BMS); err != nil {
			return 0, err
		}
		if ln.inj != nil {
			ln.inj.SetState(*ck.Faults)
		}
		if ln.th != nil {
			if err := ln.th.Restore(ck.Thermal.State); err != nil {
				return 0, err
			}
			ln.calPct = ck.Thermal.CalendarPct
			ln.hpSteps, ln.ptcSteps = ck.Thermal.HPSteps, ck.Thermal.PTCSteps
			ln.copSum = ck.Thermal.COPSum
		}
		ln.res.Trace = copyTrace(&ck.Trace)
		x[i] = ck.CabinC
		ln.hvacJ, ln.motorJ, ln.totalJ = ck.HVACJ, ck.MotorJ, ck.TotalJ
		ln.comfortViol, ln.comfortCount, ln.trackSq = ck.ComfortViol, ck.ComfortCount, ck.TrackSq
	}
	return cks[0].Step, nil
}

// copyTrace deep-copies a trace so checkpoints and runs never alias.
func copyTrace(t *Trace) Trace {
	return Trace{
		Time:     append([]float64(nil), t.Time...),
		CabinC:   append([]float64(nil), t.CabinC...),
		OutsideC: append([]float64(nil), t.OutsideC...),
		MotorW:   append([]float64(nil), t.MotorW...),
		HeaterW:  append([]float64(nil), t.HeaterW...),
		CoolerW:  append([]float64(nil), t.CoolerW...),
		FanW:     append([]float64(nil), t.FanW...),
		HVACW:    append([]float64(nil), t.HVACW...),
		TotalW:   append([]float64(nil), t.TotalW...),
		SoC:      append([]float64(nil), t.SoC...),
		PackC:    append([]float64(nil), t.PackC...),
		Inputs:   append([]cabin.Inputs(nil), t.Inputs...),
	}
}
