package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"evclimate/internal/drivecycle"
	"evclimate/internal/geodata"
	"evclimate/internal/runner"
)

// This file adds a fleet-scale Monte-Carlo evaluation beyond the paper's
// five fixed cycles: many synthesized commutes across climates, terrains,
// and departure times (via internal/geodata), each driven under On/Off and
// under the lifetime-aware MPC, aggregated into distributional statistics
// of the SoH and power savings. This answers the robustness question the
// paper's fixed-cycle evaluation leaves open: how does the improvement
// distribute over realistic usage, not just regulatory cycles?
//
// Trip parameters are sampled up front from the config seed; the route
// synthesis and both controller runs of every trip then execute as
// independent jobs on the parallel sweep engine, with each trip's terrain
// seeded from the runner's derived per-cycle seed (no RNG shared between
// jobs).

// FleetConfig parameterizes the Monte-Carlo sweep. Profile truncation,
// the MPC configuration, cancellation and the sweep-engine settings come
// from the harness Options, as for every other experiment.
type FleetConfig struct {
	// Trips is the number of synthesized commutes (default 12).
	Trips int
	// Seed makes the sweep reproducible (default 1).
	Seed int64
}

// fleetZones are the climate zones trips are sampled from.
var fleetZones = [...]geodata.ClimateZone{
	geodata.Temperate, geodata.Desert, geodata.Coastal, geodata.Continental,
}

// FleetTrip is one sampled commute's outcome.
type FleetTrip struct {
	// Label describes the sample ("coastal m7 h8 14km").
	Label string
	// OnOffDeltaSoH, MPCDeltaSoH are the per-cycle degradations.
	OnOffDeltaSoH, MPCDeltaSoH float64
	// OnOffHVACW, MPCHVACW are the average HVAC powers.
	OnOffHVACW, MPCHVACW float64
	// SoHSavingPct is the MPC's relative improvement.
	SoHSavingPct float64
}

// FleetSummary aggregates the sweep.
type FleetSummary struct {
	// Trips holds the individual outcomes.
	Trips []FleetTrip
	// MeanSoHSavingPct, MedianSoHSavingPct, MinSoHSavingPct,
	// MaxSoHSavingPct summarize the distribution of SoH savings.
	MeanSoHSavingPct, MedianSoHSavingPct, MinSoHSavingPct, MaxSoHSavingPct float64
	// WinFraction is the share of trips where the MPC degraded the
	// battery less than On/Off.
	WinFraction float64
}

// fleetTripParams is one pre-sampled commute description; the route
// itself is synthesized inside the trip's sweep job.
type fleetTripParams struct {
	zone    geodata.ClimateZone
	month   int
	hour    float64
	reliefM float64
	wps     []geodata.Waypoint
	totalKm float64
}

// fill applies the sweep defaults in place.
func (cfg *FleetConfig) fill() {
	if cfg.Trips <= 0 {
		cfg.Trips = 12
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
}

// fleetSpec expands a filled config into the sweep spec and the sampled
// trip parameters, truncating profiles to o.MaxProfileS and running the
// MPC with o's configuration. The builder is pure in its inputs: equal
// inputs always sample identical trips and expand identical jobs, which
// lets the fabric registry rebuild the sweep from wire parameters.
func fleetSpec(o Options, cfg FleetConfig) (runner.Spec, []fleetTripParams) {
	// Phase 1: sample every trip's parameters sequentially from the
	// config seed (cheap and reproducible).
	rng := rand.New(rand.NewSource(cfg.Seed))
	trips := make([]fleetTripParams, cfg.Trips)
	for i := range trips {
		tp := fleetTripParams{
			zone:    fleetZones[rng.Intn(len(fleetZones))],
			month:   1 + rng.Intn(12),
			hour:    []float64{7.5, 8, 12, 17.5, 22}[rng.Intn(5)],
			reliefM: 60 + rng.Float64()*180,
		}
		// A commute of 2–5 legs, 5–25 km total.
		legs := 2 + rng.Intn(4)
		tp.wps = make([]geodata.Waypoint, legs)
		for j := range tp.wps {
			tp.wps[j] = geodata.Waypoint{
				LengthKm:    1 + rng.Float64()*7,
				FreeFlowKmh: []float64{40, 60, 80, 110}[rng.Intn(4)],
				Stop:        rng.Float64() < 0.5,
			}
			tp.totalKm += tp.wps[j].LengthKm
		}
		trips[i] = tp
	}

	// Phase 2: one sweep cycle per trip; the Gen hook plans the route
	// from the runner's derived per-trip seed.
	cycles := make([]runner.CycleSpec, cfg.Trips)
	for i := range cycles {
		tp := trips[i]
		name := fmt.Sprintf("fleet-%d", i)
		cycles[i] = runner.CycleSpec{
			Label: name,
			Gen: func(seed int64) (*drivecycle.Profile, error) {
				planner := &geodata.Planner{
					Terrain: &geodata.Terrain{Seed: seed, ReliefM: tp.reliefM},
					Climate: &geodata.Climate{Zone: tp.zone},
					Traffic: &geodata.Traffic{},
				}
				route, err := planner.Plan(name, tp.wps, tp.month, tp.hour)
				if err != nil {
					return nil, err
				}
				return route.Profile(1)
			},
		}
	}
	return runner.Spec{
		Controllers: []runner.ControllerSpec{
			runner.OnOffSpec(0),
			runner.MPCSpec(o.mpcConfig(), 0),
		},
		Cycles:      cycles,
		MaxProfileS: o.MaxProfileS,
		BaseSeed:    cfg.Seed,
	}, trips
}

// FleetSpec rebuilds the distributable Monte-Carlo sweep from wire
// parameters: default climate zones and controller configs, with the
// trip sampling and route synthesis fully determined by the seed.
func FleetSpec(params map[string]string) (runner.Spec, error) {
	trips, err := strconv.Atoi(params["trips"])
	if err != nil {
		return runner.Spec{}, fmt.Errorf("experiments: fleet trips param: %w", err)
	}
	seed, err := strconv.ParseInt(params["seed"], 10, 64)
	if err != nil {
		return runner.Spec{}, fmt.Errorf("experiments: fleet seed param: %w", err)
	}
	maxS, err := strconv.ParseFloat(params["max_s"], 64)
	if err != nil {
		return runner.Spec{}, fmt.Errorf("experiments: fleet max_s param: %w", err)
	}
	cfg := FleetConfig{Trips: trips, Seed: seed}
	cfg.fill()
	spec, _ := fleetSpec(Options{MaxProfileS: maxS}, cfg)
	return spec, nil
}

// RunFleet executes the Monte-Carlo sweep on the parallel runner with
// o's profile truncation, MPC configuration, context and sweep-engine
// settings.
func RunFleet(o Options, cfg FleetConfig) (*FleetSummary, error) {
	cfg.fill()
	spec, trips := fleetSpec(o, cfg)
	sw, err := runner.Run(o.ctx(), spec, o.runOptions("fleet"))
	if err != nil {
		return nil, err
	}
	if err := sw.JobErrors(); err != nil {
		return nil, err
	}

	summary := &FleetSummary{MinSoHSavingPct: 1e9, MaxSoHSavingPct: -1e9}
	for i, cell := range sw.Cells() {
		results := runner.CellMap(cell)
		onoff, aware := results[NameOnOff], results[NameMPC]
		tp := trips[i]
		saving := 100 * (1 - aware.DeltaSoH/onoff.DeltaSoH)
		ft := FleetTrip{
			Label:         fmt.Sprintf("%s m%02d h%04.1f %4.1fkm", tp.zone, tp.month, tp.hour, tp.totalKm),
			OnOffDeltaSoH: onoff.DeltaSoH,
			MPCDeltaSoH:   aware.DeltaSoH,
			OnOffHVACW:    onoff.AvgHVACW,
			MPCHVACW:      aware.AvgHVACW,
			SoHSavingPct:  saving,
		}
		summary.Trips = append(summary.Trips, ft)
		summary.MeanSoHSavingPct += saving
		if saving < summary.MinSoHSavingPct {
			summary.MinSoHSavingPct = saving
		}
		if saving > summary.MaxSoHSavingPct {
			summary.MaxSoHSavingPct = saving
		}
		if aware.DeltaSoH < onoff.DeltaSoH {
			summary.WinFraction++
		}
	}
	n := float64(len(summary.Trips))
	summary.MeanSoHSavingPct /= n
	summary.WinFraction /= n
	savings := make([]float64, len(summary.Trips))
	for i, tr := range summary.Trips {
		savings[i] = tr.SoHSavingPct
	}
	sort.Float64s(savings)
	summary.MedianSoHSavingPct = savings[len(savings)/2]
	return summary, nil
}

// RenderFleet formats the sweep.
func RenderFleet(s *FleetSummary) string {
	var sb strings.Builder
	sb.WriteString("Fleet Monte-Carlo — SoH saving of the lifetime-aware MPC vs On/Off\n")
	for _, tr := range s.Trips {
		fmt.Fprintf(&sb, "  %-28s OnOff %5.2f kW / %.5f %%   MPC %5.2f kW / %.5f %%   saving %+6.1f %%\n",
			tr.Label, tr.OnOffHVACW/1000, tr.OnOffDeltaSoH,
			tr.MPCHVACW/1000, tr.MPCDeltaSoH, tr.SoHSavingPct)
	}
	fmt.Fprintf(&sb, "trips %d   mean %+.1f %%   median %+.1f %%   range [%+.1f, %+.1f] %%   wins %.0f %%\n",
		len(s.Trips), s.MeanSoHSavingPct, s.MedianSoHSavingPct,
		s.MinSoHSavingPct, s.MaxSoHSavingPct, 100*s.WinFraction)
	return sb.String()
}
