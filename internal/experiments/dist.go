package experiments

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"evclimate/internal/fabric"
	"evclimate/internal/runner"
)

// distSeed pins the distributable sweep's base seed; coordinator and
// every worker must expand the identical job list.
const distSeed = 20150601

// DistParams encodes the distributable sweep's variability as wire
// parameters — everything a joining worker needs to rebuild the exact
// spec from its local builder.
func DistParams(o Options) map[string]string {
	o.fill()
	return map[string]string{
		"seed":  strconv.FormatInt(distSeed, 10),
		"max_s": strconv.FormatFloat(o.MaxProfileS, 'g', -1, 64),
	}
}

// DistSpec is the distributable robustness sweep: every standard drive
// cycle × 5 ambients × 3 cabin targets under both baseline controllers
// — 7×5×3×2 = 210 cheap scenarios, the fabric's acceptance workload.
// The builder is pure: equal params always expand to equal jobs, which
// is what lets coordinator and workers agree on the sweep fingerprint.
func DistSpec(params map[string]string) (runner.Spec, error) {
	seed, err := strconv.ParseInt(params["seed"], 10, 64)
	if err != nil {
		return runner.Spec{}, fmt.Errorf("experiments: dist seed param: %w", err)
	}
	maxS, err := strconv.ParseFloat(params["max_s"], 64)
	if err != nil {
		return runner.Spec{}, fmt.Errorf("experiments: dist max_s param: %w", err)
	}
	return runner.Spec{
		Controllers: []runner.ControllerSpec{runner.OnOffSpec(1), runner.FuzzySpec(1)},
		Cycles: []runner.CycleSpec{
			{Name: "ECE15"}, {Name: "EUDC"}, {Name: "NEDC"}, {Name: "ECE_EUDC"},
			{Name: "US06"}, {Name: "SC03"}, {Name: "UDDS"},
		},
		Envs: []runner.Env{
			{AmbientC: -10}, {AmbientC: 0}, {AmbientC: 20},
			{AmbientC: 35, SolarW: 400}, {AmbientC: 40, SolarW: 600},
		},
		Targets:     []float64{22, 24, 26},
		BaseSeed:    seed,
		MaxProfileS: maxS,
	}, nil
}

// FabricSpecs is the spec-builder registry both evbench roles share:
// `evbench -serve` resolves names out of it when coordinating, and
// `evbench -join` resolves the same names when rebuilding a sweep
// locally. Coordinator and workers normally run the same binary, which
// is what keeps the two registries identical.
func FabricSpecs() *fabric.Registry {
	specs := fabric.NewSpecRegistry()
	specs.Register("dist", DistSpec)
	specs.Register("cold", ColdSpec)
	specs.Register("table1", Table1Spec)
	specs.Register("fleet", FleetSpec)
	return specs
}

// RunDist executes the distributable sweep single-process — the
// baseline the fabric's topologies are measured (and byte-compared)
// against.
func RunDist(o Options) (*runner.Sweep, error) {
	o.fill()
	spec, err := DistSpec(DistParams(o))
	if err != nil {
		return nil, err
	}
	return runner.Run(o.ctx(), spec, o.runOptions("dist"))
}

// RenderDist summarizes the distributable sweep per controller: one row
// per methodology with scenario counts and mean power/health outcomes.
func RenderDist(sw *runner.Sweep) string {
	type agg struct {
		jobs, failed  int
		hvacW, dSoHe9 float64
	}
	byCtrl := map[string]*agg{}
	var order []string
	for i := range sw.Jobs {
		jr := &sw.Jobs[i]
		label := jr.Job.Controller.Label
		a := byCtrl[label]
		if a == nil {
			a = &agg{}
			byCtrl[label] = a
			order = append(order, label)
		}
		a.jobs++
		switch {
		case jr.Err != nil:
			a.failed++
		case jr.Result != nil:
			a.hvacW += jr.Result.AvgHVACW
			a.dSoHe9 += jr.Result.DeltaSoH * 1e9
		}
	}
	sort.Strings(order)

	var sb strings.Builder
	fmt.Fprintf(&sb, "Distributable sweep: %d scenarios (%d cycles × envs × targets)\n",
		len(sw.Jobs), len(sw.Spec.Cycles))
	fmt.Fprintf(&sb, "%-14s %9s %9s %14s %14s\n", "controller", "jobs", "failed", "mean HVAC (W)", "mean ΔSoH (1e-9)")
	for _, label := range order {
		a := byCtrl[label]
		ok := a.jobs - a.failed
		meanW, meanSoH := 0.0, 0.0
		if ok > 0 {
			meanW = a.hvacW / float64(ok)
			meanSoH = a.dSoHe9 / float64(ok)
		}
		fmt.Fprintf(&sb, "%-14s %9d %9d %14.1f %14.3f\n", label, a.jobs, a.failed, meanW, meanSoH)
	}
	return sb.String()
}
