package fuzzy

import (
	"fmt"
	"math"
	"sort"
)

// Compiled is the validate-once, allocation-free evaluator of a
// System, the form a batched sweep calls millions of times: validation
// happens once, inputs arrive as a slice in InputNames order, rule
// antecedents are index-resolved, and the output terms' degrees at the
// centroid samples are precomputed into a flat table.
//
// The inference arithmetic is plain Mamdani inference — clamp, min-AND,
// max aggregation, Mamdani clip, centroid accumulation in sample order —
// so Compiled.Evaluate returns bit-identical results to the interpreted
// inference the package's tests keep as an oracle (max and min are
// order-independent, and only fired terms, which the interpreter also
// restricts itself to, enter the aggregation).
type Compiled struct {
	names      []string
	mins, maxs []float64

	rules []compiledRule
	nOut  int // number of output terms

	// Centroid table: xs[i] is the i-th output sample, deg[j*len(xs)+i]
	// the j-th output term's membership degree there.
	xs  []float64
	deg []float64

	// Per-call scratch (not safe for concurrent use; Clone shares the
	// tables above and refreshes only these).
	act      []float64
	firedIdx []int
	firedW   []float64
}

type compiledRule struct {
	conds []compiledCond
	out   int
}

type compiledCond struct {
	in int
	mf MFDegreeFunc
}

// MFDegreeFunc is a monomorphized membership function: calling through a
// concrete func value instead of the MF interface lets rule evaluation
// stay devirtualized in the hot loop while producing the same bits.
type MFDegreeFunc func(x float64) float64

// Compile validates the system once and builds the allocation-free
// evaluator. The compiled form is a snapshot: rules or terms added to
// the System afterwards are not reflected.
func (s *System) Compile() (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	names := s.InputNames()
	idx := make(map[string]int, len(names))
	c := &Compiled{
		names: names,
		mins:  make([]float64, len(names)),
		maxs:  make([]float64, len(names)),
	}
	for i, n := range names {
		idx[n] = i
		c.mins[i] = s.inputs[n].Min
		c.maxs[i] = s.inputs[n].Max
	}

	// Output terms in sorted-name order: the index layout is stable for
	// equal systems, and aggregation is order-independent anyway.
	outTerms := make([]string, 0, len(s.output.Terms))
	for name := range s.output.Terms {
		outTerms = append(outTerms, name)
	}
	sort.Strings(outTerms)
	outIdx := make(map[string]int, len(outTerms))
	for j, name := range outTerms {
		outIdx[name] = j
	}
	c.nOut = len(outTerms)

	c.rules = make([]compiledRule, len(s.rules))
	for ri, r := range s.rules {
		cr := compiledRule{out: outIdx[r.Then.Term], conds: make([]compiledCond, len(r.If))}
		for ci, cond := range r.If {
			cr.conds[ci] = compiledCond{in: idx[cond.Var], mf: s.inputs[cond.Var].Terms[cond.Term].Degree}
		}
		c.rules[ri] = cr
	}

	n := resolution
	c.xs = make([]float64, n)
	c.deg = make([]float64, c.nOut*n)
	for i := 0; i < n; i++ {
		c.xs[i] = s.output.Min + (s.output.Max-s.output.Min)*float64(i)/float64(n-1)
	}
	for j, name := range outTerms {
		mf := s.output.Terms[name]
		for i := 0; i < n; i++ {
			c.deg[j*n+i] = mf.Degree(c.xs[i])
		}
	}

	c.act = make([]float64, c.nOut)
	c.firedIdx = make([]int, c.nOut)
	c.firedW = make([]float64, c.nOut)
	return c, nil
}

// Clone returns an evaluator sharing the compiled tables but with its
// own scratch, so lanes (or goroutines) can evaluate concurrently
// without recompiling.
func (c *Compiled) Clone() *Compiled {
	out := *c
	out.act = make([]float64, c.nOut)
	out.firedIdx = make([]int, c.nOut)
	out.firedW = make([]float64, c.nOut)
	return &out
}

// InputNames returns the expected input order (the System's sorted input
// names).
func (c *Compiled) InputNames() []string { return c.names }

// Evaluate runs Mamdani inference for crisp inputs given in InputNames
// order and returns the centroid-defuzzified output. It allocates
// nothing.
func (c *Compiled) Evaluate(in []float64) (float64, error) {
	if len(in) != len(c.mins) {
		return 0, fmt.Errorf("fuzzy: %d inputs, want %d", len(in), len(c.mins))
	}
	act := c.act
	for j := range act {
		act[j] = 0
	}
	anyFired := false
	for ri := range c.rules {
		r := &c.rules[ri]
		w := 1.0
		for ci := range r.conds {
			cd := &r.conds[ci]
			x := in[cd.in]
			x = math.Max(c.mins[cd.in], math.Min(c.maxs[cd.in], x))
			d := cd.mf(x)
			if d < w {
				w = d
			}
		}
		if w > 0 {
			anyFired = true
			if w > act[r.out] {
				act[r.out] = w
			}
		}
	}
	if !anyFired {
		return 0, ErrNoActivation
	}
	// Compact the fired terms: unfired terms contribute exactly 0 to the
	// max aggregation, so skipping them changes no bits and keeps the
	// centroid loop short (typically ≤ 4 of the output terms fire).
	nf := 0
	for j, w := range act {
		if w > 0 {
			c.firedIdx[nf] = j
			c.firedW[nf] = w
			nf++
		}
	}
	n := len(c.xs)
	var num, den float64
	for i := 0; i < n; i++ {
		var mu float64
		for f := 0; f < nf; f++ {
			d := c.deg[c.firedIdx[f]*n+i]
			if w := c.firedW[f]; d > w {
				d = w // Mamdani clip
			}
			if d > mu {
				mu = d
			}
		}
		num += mu * c.xs[i]
		den += mu
	}
	if den == 0 {
		return 0, ErrNoActivation
	}
	return num / den, nil
}
