package core

import (
	"encoding/json"
	"errors"
	"fmt"

	"evclimate/internal/control"
)

// mpcState is the MPC's serializable mutable state: the warm-start
// buffer, the BFGS blocks the last solve ended with, and the per-run
// diagnostics. sqp.Solve refills every other workspace buffer on each
// call, so the rest of the solver arena needs no capture. The blocks are
// kept only with a usable warm start, row-major and stage after stage,
// because the next Decide starts from them when it is carried. lastErr is carried as its message:
// supervisory layers only use it as an opaque soft-fault reason, and the
// next Decide overwrites it.
type mpcState struct {
	PrevZ    []float64 `json:"prev_z"`
	HavePrev bool      `json:"have_prev"`
	Hessian  []float64 `json:"hessian,omitempty"`

	Stats

	LastErr   string            `json:"last_err,omitempty"`
	LastSolve control.SolveInfo `json:"last_solve"`
}

// StateSnapshot implements control.Snapshotter.
func (c *Controller) StateSnapshot() (json.RawMessage, error) {
	st := mpcState{
		PrevZ:     append([]float64(nil), c.prevZ...),
		HavePrev:  c.havePrev,
		Stats:     c.stats,
		LastSolve: c.lastSolve,
	}
	if c.havePrev {
		blocks := c.sqpWork.Hessian(&c.prob)
		st.Hessian = make([]float64, 0, len(blocks)*c.sv*c.sv)
		for _, blk := range blocks {
			for i := 0; i < c.sv; i++ {
				st.Hessian = append(st.Hessian, blk.RawRow(i)...)
			}
		}
	}
	if c.lastErr != nil {
		st.LastErr = c.lastErr.Error()
	}
	return json.Marshal(st)
}

// RestoreState implements control.Snapshotter. The snapshot must come
// from a controller with the same stage layout and horizon: the
// warm-start buffer holds sv variables per stage for every stage, and
// the BFGS blocks sv×sv floats per stage.
func (c *Controller) RestoreState(raw json.RawMessage) error {
	var st mpcState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("core: mpc state: %w", err)
	}
	if len(st.PrevZ) != len(c.prevZ) {
		return fmt.Errorf("core: mpc state has %d warm-start entries, controller expects %d (%d per stage, horizon %d): stage layout or horizon mismatch",
			len(st.PrevZ), len(c.prevZ), c.sv, c.cfg.Horizon)
	}
	if st.HavePrev {
		blocks := c.sqpWork.Hessian(&c.prob)
		if want := len(blocks) * c.sv * c.sv; len(st.Hessian) != want {
			return fmt.Errorf("core: mpc state has %d BFGS entries, controller expects %d (%d×%d per stage, horizon %d)",
				len(st.Hessian), want, c.sv, c.sv, c.cfg.Horizon)
		}
		h := st.Hessian
		for _, blk := range blocks {
			for i := 0; i < c.sv; i++ {
				h = h[copy(blk.RawRow(i), h):]
			}
		}
	}
	copy(c.prevZ, st.PrevZ)
	c.havePrev = st.HavePrev
	c.stats = st.Stats
	c.lastErr = nil
	if st.LastErr != "" {
		c.lastErr = errors.New(st.LastErr)
	}
	c.lastSolve = st.LastSolve
	return nil
}
