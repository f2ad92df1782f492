package qp

import (
	"errors"
	"math"
	"testing"

	"evclimate/internal/mat"
)

func TestValidateRejectsNonFiniteMatrices(t *testing.T) {
	base := func() *Problem {
		return denseQP{
			H:   mat.FromRows([][]float64{{2, 0}, {0, 2}}),
			C:   []float64{1, 1},
			Aeq: mat.FromRows([][]float64{{1, 1}}),
			Beq: []float64{1},
			Ain: mat.FromRows([][]float64{{1, 0}}),
			Bin: []float64{2},
		}.problem()
	}

	cases := []struct {
		name   string
		poison func(p *Problem)
	}{
		{"NaN in H", func(p *Problem) { p.H[0].Set(0, 1, math.NaN()) }},
		{"Inf in H", func(p *Problem) { p.H[0].Set(1, 1, math.Inf(1)) }},
		{"NaN in Aeq", func(p *Problem) { p.Aeq.Set(0, 0, math.NaN()) }},
		{"Inf in Ain", func(p *Problem) { p.Ain.Set(0, 1, math.Inf(-1)) }},
		{"NaN in C", func(p *Problem) { p.C[0] = math.NaN() }},
		{"NaN in Beq", func(p *Problem) { p.Beq[0] = math.NaN() }},
		{"Inf in Bin", func(p *Problem) { p.Bin[0] = math.Inf(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := base()
			tc.poison(p)
			_, err := Solve(p, Options{})
			if !errors.Is(err, ErrBadProblem) {
				t.Fatalf("err = %v, want ErrBadProblem", err)
			}
		})
	}

	// The clean problem must still solve.
	if _, err := Solve(base(), Options{}); err != nil {
		t.Fatalf("clean problem rejected: %v", err)
	}
}
