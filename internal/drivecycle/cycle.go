package drivecycle

import (
	"fmt"
	"math"

	"evclimate/internal/units"
)

// Breakpoint is one vertex of a piecewise-linear speed trace.
type Breakpoint struct {
	// TimeS is the time in seconds from cycle start.
	TimeS float64
	// SpeedKmh is the vehicle speed in km/h at that time.
	SpeedKmh float64
}

// Cycle is a named speed trace defined by piecewise-linear breakpoints.
// The European regulatory cycles (ECE-15, EUDC and their compositions) are
// officially *defined* this way — as sequences of constant-acceleration
// ramps and cruises — so this representation is exact for them.
type Cycle struct {
	// Name is the cycle identifier, e.g. "NEDC".
	Name string
	// Breakpoints must have strictly increasing times and start at 0.
	Breakpoints []Breakpoint
}

// Duration returns the cycle length in seconds.
func (c *Cycle) Duration() float64 {
	if len(c.Breakpoints) == 0 {
		return 0
	}
	return c.Breakpoints[len(c.Breakpoints)-1].TimeS
}

// speedAtFrom returns the speed in m/s at time t (clamped to the cycle
// span), interpolating linearly between breakpoints, with a resumable
// segment cursor for monotone query sequences: *idx is the segment index
// of the previous (smaller) query, so each call only advances forward
// instead of re-scanning the breakpoint list from the start. The segment
// chosen is the first i with t ≤ bp[i+1].TimeS, so the result is
// bit-identical to a scan from the start (the tests' SpeedAt).
func speedAtFrom(bp []Breakpoint, t float64, idx *int) float64 {
	if t <= bp[0].TimeS {
		return units.KmhToMs(bp[0].SpeedKmh)
	}
	i := *idx
	for i < len(bp)-1 && bp[i+1].TimeS < t {
		i++
	}
	*idx = i
	if i >= len(bp)-1 {
		return units.KmhToMs(bp[len(bp)-1].SpeedKmh)
	}
	w := (t - bp[i].TimeS) / (bp[i+1].TimeS - bp[i].TimeS)
	return units.KmhToMs(units.Lerp(bp[i].SpeedKmh, bp[i+1].SpeedKmh, w))
}

// Profile samples the cycle at period dt, computing acceleration by
// forward differences (matching the discrete drive-profile definition in
// paper Sec. II-A). Slope, ambient, and solar default to zero; use the
// Profile.With* helpers to set them. Sampling walks the breakpoint list
// once with two cursors (one per forward-difference endpoint) instead of
// scanning it per sample; each sample is bit-identical to a per-sample
// scan (pinned by TestProfileMatchesSpeedAt).
func (c *Cycle) Profile(dt float64) *Profile {
	return c.ProfileSpan(dt, 0)
}

// ProfileSpan samples the cycle like Profile but only up to maxS seconds
// (maxS ≤ 0 or a bound past the end samples the full cycle). The result
// is sample-for-sample identical to Profile(dt).Truncate(maxS) — each
// sample depends only on its own time — without materializing the tail;
// sweep expansion truncates to its MaxProfileS anyway, so building the
// full cycle just to throw most of it away dominated expansion.
func (c *Cycle) ProfileSpan(dt, maxS float64) *Profile {
	if dt <= 0 {
		panic(fmt.Sprintf("drivecycle: Profile(dt=%v)", dt))
	}
	dur := c.Duration()
	n := int(math.Round(dur/dt)) + 1
	if maxS > 0 {
		// Truncate keeps samples with Time ≤ maxS; count them directly.
		m := 0
		for m < n && float64(m)*dt <= maxS {
			m++
		}
		n = m
	}
	p := &Profile{Name: c.Name, Dt: dt, Samples: make([]Sample, n)}
	var cur, curNext int
	for i := 0; i < n; i++ {
		t := float64(i) * dt
		v := c.speedAtCursor(t, &cur)
		vNext := c.speedAtCursor(t+dt, &curNext)
		p.Samples[i] = Sample{
			Time:  t,
			Speed: v,
			Accel: (vNext - v) / dt,
		}
	}
	return p
}

// speedAtCursor dispatches to speedAtFrom; an empty cycle has speed 0.
func (c *Cycle) speedAtCursor(t float64, idx *int) float64 {
	if len(c.Breakpoints) == 0 {
		return 0
	}
	return speedAtFrom(c.Breakpoints, t, idx)
}

// Append returns a new cycle consisting of c followed by d (both names
// joined). The appended cycle's breakpoints are shifted by c's duration.
func (c *Cycle) Append(d *Cycle) *Cycle {
	out := &Cycle{Name: c.Name + "+" + d.Name}
	out.Breakpoints = append(out.Breakpoints, c.Breakpoints...)
	offset := c.Duration()
	for i, bp := range d.Breakpoints {
		if i == 0 && len(out.Breakpoints) > 0 && bp.TimeS == 0 {
			// Merge the seam: skip the duplicate t=0 point when the speeds
			// agree; otherwise keep it an instant after the seam.
			last := out.Breakpoints[len(out.Breakpoints)-1]
			if last.SpeedKmh == bp.SpeedKmh {
				continue
			}
			out.Breakpoints = append(out.Breakpoints, Breakpoint{offset + 1e-9, bp.SpeedKmh})
			continue
		}
		out.Breakpoints = append(out.Breakpoints, Breakpoint{offset + bp.TimeS, bp.SpeedKmh})
	}
	return out
}

// RepeatCycle returns c repeated n times.
func (c *Cycle) RepeatCycle(n int) *Cycle {
	if n < 1 {
		panic(fmt.Sprintf("drivecycle: RepeatCycle(%d)", n))
	}
	out := &Cycle{Name: fmt.Sprintf("%s×%d", c.Name, n), Breakpoints: append([]Breakpoint(nil), c.Breakpoints...)}
	for k := 1; k < n; k++ {
		out = out.Append(c)
	}
	out.Name = fmt.Sprintf("%s×%d", c.Name, n)
	return out
}

// Validate checks monotone time and nonnegative speeds.
func (c *Cycle) Validate() error {
	if len(c.Breakpoints) < 2 {
		return fmt.Errorf("drivecycle: cycle %q needs ≥ 2 breakpoints", c.Name)
	}
	prev := math.Inf(-1)
	for i, bp := range c.Breakpoints {
		if bp.TimeS <= prev {
			return fmt.Errorf("drivecycle: cycle %q breakpoint %d: time %v not increasing", c.Name, i, bp.TimeS)
		}
		prev = bp.TimeS
		if bp.SpeedKmh < 0 {
			return fmt.Errorf("drivecycle: cycle %q breakpoint %d: negative speed", c.Name, i)
		}
	}
	return nil
}
