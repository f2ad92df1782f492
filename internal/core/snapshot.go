package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"evclimate/internal/control"
)

// mpcState is the MPC's serializable mutable state: the warm-start buffer
// and the per-run diagnostics. The solver arena needs no capture —
// sqp.Solve re-seeds the BFGS Hessian and refills every workspace buffer
// on each call, so the warm start is the only state the next Decide
// reads. lastErr is carried as its message: supervisory layers only use
// it as an opaque soft-fault reason, and the next Decide overwrites it.
type mpcState struct {
	PrevZ    []float64 `json:"prev_z"`
	HavePrev bool      `json:"have_prev"`

	Solves        int `json:"solves"`
	Converged     int `json:"converged"`
	Stalled       int `json:"stalled"`
	Failed        int `json:"failed"`
	Budget        int `json:"budget"`
	TotalSQPIters int `json:"total_sqp_iters"`

	LastErr   string            `json:"last_err,omitempty"`
	LastSolve control.SolveInfo `json:"last_solve"`
}

// StateSnapshot implements control.Snapshotter.
func (c *Controller) StateSnapshot() (json.RawMessage, error) {
	st := mpcState{
		PrevZ:         append([]float64(nil), c.prevZ...),
		HavePrev:      c.havePrev,
		Solves:        c.solves,
		Converged:     c.converged,
		Stalled:       c.stalled,
		Failed:        c.failed,
		Budget:        c.budget,
		TotalSQPIters: c.totalSQPIters,
		LastSolve:     c.lastSolve,
	}
	if c.lastErr != nil {
		st.LastErr = c.lastErr.Error()
	}
	return json.Marshal(st)
}

// RestoreState implements control.Snapshotter. The snapshot must come
// from a controller with the same stage layout and horizon: the
// warm-start buffer holds sv variables per stage for every stage.
func (c *Controller) RestoreState(raw json.RawMessage) error {
	var st mpcState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("core: mpc state: %w", err)
	}
	if len(st.PrevZ) != len(c.prevZ) {
		return fmt.Errorf("core: mpc state has %d warm-start entries, controller expects %d (%d per stage, horizon %d): stage layout or horizon mismatch",
			len(st.PrevZ), len(c.prevZ), c.sv, c.cfg.Horizon)
	}
	copy(c.prevZ, st.PrevZ)
	c.havePrev = st.HavePrev
	c.solves, c.converged, c.stalled, c.failed, c.budget = st.Solves, st.Converged, st.Stalled, st.Failed, st.Budget
	c.totalSQPIters = st.TotalSQPIters
	c.lastErr = nil
	if st.LastErr != "" {
		c.lastErr = errors.New(st.LastErr)
	}
	c.lastSolve = st.LastSolve
	return nil
}
