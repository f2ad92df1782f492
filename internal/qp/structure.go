package qp

import "fmt"

// StageStructure declares receding-horizon stage structure on a Problem:
// the decision vector, the equality rows, and the inequality rows are
// each partitioned into N contiguous stages of equal size (stage k owning
// variables [k·NV, (k+1)·NV), equality rows [k·NE, (k+1)·NE) and
// inequality rows [k·NI, (k+1)·NI)).
//
// The structural contract is the one a multiple-shooting MPC
// transcription satisfies naturally:
//
//   - H is zero outside the block-tridiagonal band: H[i][j] = 0 unless
//     the stages of i and j are equal or adjacent.
//   - A stage-k constraint row (equality or inequality) has support only
//     in the variables of stages k−1 and k.
//
// When a Problem declares a structure, Solve verifies the contract
// against the actual matrix data (a cheap scan of the out-of-band
// entries) and, if it holds, solves the interior-point KKT system with a
// block-tridiagonal LDLᵀ (Riccati) recursion in O(N·m³) instead of the
// dense O((N·m)³) — with the same static regularization, so the computed
// step solves the identical linear system as the dense reference up to
// roundoff. Non-conforming data silently falls back to the dense path
// (Result.Structured reports which path ran).
type StageStructure struct {
	// N is the number of stages (≥ 1).
	N int
	// NV is the number of primal variables per stage (≥ 1).
	NV int
	// NE is the number of equality rows per stage (≥ 0).
	NE int
	// NI is the number of inequality rows per stage (≥ 0).
	NI int
}

// UniformStages builds the structure of n stages, each with nv
// variables, ne equality rows, and ni inequality rows.
func UniformStages(n, nv, ne, ni int) *StageStructure {
	return &StageStructure{N: n, NV: nv, NE: ne, NI: ni}
}

// Check validates the declaration against problem dimensions: the counts
// must be nonnegative (stages and variables ≥ 1) and multiply out to n,
// meq, and min.
func (s *StageStructure) Check(n, meq, min int) error {
	if s.N < 1 || s.NV < 1 || s.NE < 0 || s.NI < 0 {
		return fmt.Errorf("%w: stage structure N=%d NV=%d NE=%d NI=%d", ErrBadProblem, s.N, s.NV, s.NE, s.NI)
	}
	if s.N*s.NV != n || s.N*s.NE != meq || s.N*s.NI != min {
		return fmt.Errorf("%w: stage sums %d/%d/%d, problem dims %d/%d/%d", ErrBadProblem, s.N*s.NV, s.N*s.NE, s.N*s.NI, n, meq, min)
	}
	return nil
}
