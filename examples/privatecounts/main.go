// Differentially private releases (the paper's §4.1 privacy extension,
// after Ghosh et al. INFOCOM 2020): the query server receives noisy
// integer counts over the exact tracking forms, under a total privacy
// budget.
package main

import (
	"fmt"
	"log"

	stq "repro"
)

func main() {
	sys, err := stq.NewGridCitySystem(stq.GridOpts{
		NX: 18, NY: 18, Spacing: 100, Jitter: 0.25, RemoveFrac: 0.15,
	}, 31)
	if err != nil {
		log.Fatal(err)
	}
	wl, err := sys.GenerateWorkload(stq.MobilityOpts{
		Objects: 900, Horizon: 24 * 3600, TripsPerObject: 5,
		MeanSpeed: 12, MeanPause: 900, LeaveProb: 0.5, HotspotBias: 0.5,
	}, 32)
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Ingest(wl); err != nil {
		log.Fatal(err)
	}

	b := sys.Bounds()
	c := b.Center()
	region := stq.Rect{
		Min: stq.Point{X: c.X - b.Width()/4, Y: c.Y - b.Height()/4},
		Max: stq.Point{X: c.X + b.Width()/4, Y: c.Y + b.Height()/4},
	}

	exact, err := sys.Query(stq.Query{Rect: region, T1: 12 * 3600, Kind: stq.Snapshot})
	if err != nil {
		log.Fatal(err)
	}

	// ε-DP releases under a total budget of ε = 4, spending ε = 0.5 per
	// query: two-sided geometric noise with α = e^−0.5, expected
	// |noise| = 2α/(1−α²) ≈ 1.9 objects.
	if err := sys.EnablePrivacy(4.0, 0.5); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("exact count %8.0f   (raw timestamps: %d bytes)\n\n", exact.Count, sys.StorageBytes())

	fmt.Println("private releases (ε=0.5 each):")
	for i := 1; ; i++ {
		resp, err := sys.Query(stq.Query{Rect: region, T1: 12 * 3600, Kind: stq.Snapshot})
		if err != nil {
			fmt.Printf("release %d refused: %v\n", i, err)
			break
		}
		fmt.Printf("  release %d: %6.0f   (budget left: ε=%.1f)\n",
			i, resp.Count, sys.PrivacyBudgetRemaining())
	}
	fmt.Println("\nthe accountant stops answering once the total ε is spent;")
	fmt.Println("no release path ever sees raw trajectories or identifiers")
}
