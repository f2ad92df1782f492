package control

import "evclimate/internal/cabin"

// This file is the controller side of the simulation core's lockstep
// lanes: N scalar controllers stepped behind one call per control step.
// On/off and fuzzy lanes run their pointer decision kernels on the
// controllers' own state (no by-value StepContext copy); every other
// controller (the MPC family, supervisors) steps through its Decide.
// Either way lane i decides exactly what the scalar controller would,
// because it is the scalar controller.

// LaneGroup steps N scalar controllers in lockstep, one lane each.
// Snapshots go through each lane controller's Snapshotter.
type LaneGroup struct {
	lanes []Controller
}

// Batchable reports whether the controller's concrete type has a pointer
// decision kernel — the sweep engine's grouping predicate (grouping MPC
// lanes into one unit would serialize work that parallelizes better
// across jobs).
func Batchable(c Controller) bool {
	switch c.(type) {
	case *OnOff, *Fuzzy:
		return true
	}
	return false
}

// Batch groups scalar controllers into a lane group; lane i is ctrls[i].
func Batch(ctrls []Controller) *LaneGroup {
	return &LaneGroup{lanes: ctrls}
}

// Lanes returns the lane count.
func (g *LaneGroup) Lanes() int { return len(g.lanes) }

// Lane returns lane i's controller.
func (g *LaneGroup) Lane(i int) Controller { return g.lanes[i] }

// Reset resets every lane to its initial state.
func (g *LaneGroup) Reset() {
	for _, c := range g.lanes {
		c.Reset()
	}
}

// DecideAll writes lane i's decision for ctxs[i] into out[i]; both
// slices have Lanes() elements.
func (g *LaneGroup) DecideAll(ctxs []StepContext, out []cabin.Inputs) {
	for i, c := range g.lanes {
		switch c := c.(type) {
		case *OnOff:
			out[i] = c.decide(&ctxs[i])
		case *Fuzzy:
			out[i] = c.decide(&ctxs[i])
		default:
			out[i] = c.Decide(ctxs[i])
		}
	}
}
