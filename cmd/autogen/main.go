// Command autogen prints the FlexRay static-segment schedule the RTE
// generates: for each FlexRay bus of a deployed system it takes the RTE's
// frame plan (rte.PlanBus) and prints the slot assignment of its periodic
// signals (slot, base cycle, repetition, worst-case latency) — the
// planning step time-triggered design requires (§1). The cycle flags
// default to the RTE's cycle.
//
// Usage:
//
//	autogen -system vehicle.json [-slots 8] [-slotlen 100us] [-minislots 40]
//	autogen -demo
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"autorte/internal/flexray"
	"autorte/internal/model"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/vfb"
	"autorte/internal/workload"
)

func main() {
	def := rte.Options{}.Defaults().FlexRayConfig
	var (
		systemPath = flag.String("system", "", "system JSON (exchange format)")
		demo       = flag.Bool("demo", false, "use the generated demo vehicle (its backbone treated as FlexRay)")
		seed       = flag.Uint64("seed", 1, "workload generator seed (with -demo)")
		slots      = flag.Int("slots", def.StaticSlots, "static slots per cycle")
		slotLen    = flag.Duration("slotlen", time.Duration(def.SlotLength), "static slot length")
		minislots  = flag.Int("minislots", def.Minislots, "dynamic segment minislots")
		miniLen    = flag.Duration("minilen", time.Duration(def.MinislotLength), "minislot length")
		nit        = flag.Duration("nit", time.Duration(def.NIT), "network idle time")
	)
	flag.Parse()

	var sys *model.System
	var err error
	if *demo {
		sys, err = workload.GenerateVehicle(workload.VehicleSpec{BusKind: model.BusFlexRay}, sim.NewRand(*seed))
	} else if *systemPath != "" {
		var f *os.File
		if f, err = os.Open(*systemPath); err == nil {
			defer f.Close()
			sys, err = model.Import(f)
		}
	} else {
		err = fmt.Errorf("need -system file or -demo")
	}
	if err != nil {
		fatal(err)
	}

	cfg := flexray.Config{
		StaticSlots: *slots, SlotLength: sim.Duration(*slotLen),
		Minislots: *minislots, MinislotLength: sim.Duration(*miniLen),
		NIT: sim.Duration(*nit),
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}
	routes, err := vfb.Resolve(sys)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("communication cycle: %v (static %v, dynamic %v, NIT %v)\n\n",
		cfg.CycleLength(), cfg.DynamicStart(),
		sim.Duration(cfg.Minislots)*cfg.MinislotLength, cfg.NIT)
	synthesized := false
	opts := rte.Options{FlexRayConfig: cfg}
	for _, bus := range sys.Buses {
		if bus.Kind != model.BusFlexRay {
			continue
		}
		plan, err := rte.PlanBus(sys, bus, routes, opts)
		if err != nil {
			fatal(err)
		}
		sigs := plan.Static()
		if len(sigs) == 0 {
			continue
		}
		synthesized = true
		as, err := flexray.Synthesize(plan.FlexRay, sigs)
		if err != nil {
			fmt.Printf("bus %s: SYNTHESIS FAILED: %v\n", bus.Name, err)
			os.Exit(3)
		}
		fmt.Printf("bus %s: %d signals placed\n", bus.Name, len(as))
		fmt.Printf("  %-60s %-5s %-5s %-4s %s\n", "signal", "slot", "base", "rep", "WCRT")
		for _, a := range as {
			fmt.Printf("  %-60s %-5d %-5d %-4d %v\n", a.Signal.Name, a.SlotID, a.Base, a.Repetition, a.WCRT)
		}
	}
	if !synthesized {
		fmt.Println("no FlexRay buses with periodic signals found")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "autogen:", err)
	os.Exit(1)
}
