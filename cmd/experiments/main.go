// Command experiments runs the full reproduction suite E1–E14 from
// DESIGN.md and prints one result table per experiment (see
// EXPERIMENTS.md for the interpretation of each).
//
// Usage:
//
//	experiments [-only E4]
//	experiments -bundle chaos.bundle
//
// -only runs one table by its name in experiments.Runs (E4, E11series,
// E13Curve, E14Placement, ...); an unknown name prints the list.
//
// -bundle runs the E11 forced safe-stop scenario and writes its terminal
// diagnostic bundle to the given path (inspect with autodiag) — the
// artifact CI attaches when the chaos suite fails. With -bundle and no
// -only, only the bundle is produced.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"autorte/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single table by name (E1..E14Placement; see experiments.Runs)")
	bundle := flag.String("bundle", "", "write the E11 forced safe-stop diagnostic bundle to this path")
	flag.Parse()
	if *bundle != "" {
		if _, err := experiments.E11SafeStopBundle(experiments.DefaultE11(), *bundle); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: wrote %s\n", *bundle)
		if *only == "" {
			return
		}
	}
	if *only == "" {
		if err := experiments.All(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := experiments.Lookup(*only)
	if !ok {
		names := make([]string, len(experiments.Runs))
		for i, r := range experiments.Runs {
			names[i] = r.Name
		}
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (want one of %s)\n", *only, strings.Join(names, ", "))
		os.Exit(2)
	}
	tab, err := run.Table()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	tab.Render(os.Stdout)
}
