// Fleet: Monte-Carlo evaluation over randomized commutes. The paper
// evaluates on five regulatory cycles; this example asks the robustness
// question instead — across many synthesized trips (random climates,
// terrains, departure times, trip shapes), how does the lifetime-aware
// controller's SoH saving distribute, and how often does it win?
package main

import (
	"flag"
	"fmt"
	"log"

	"evclimate/internal/experiments"
)

func main() {
	trips := flag.Int("trips", 10, "number of Monte-Carlo trips")
	seed := flag.Int64("seed", 1, "random seed (reproducible)")
	flag.Parse()

	summary, err := experiments.RunFleet(experiments.Options{}, experiments.FleetConfig{
		Trips: *trips,
		Seed:  *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.RenderFleet(summary))
}
