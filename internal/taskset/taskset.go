// Package taskset derives the analyzable per-ECU task sets of a deployed
// component system, using the same priority assignment the RTE generator
// applies (event-driven runnables inherit their producer's rate; the
// resulting set is rate-monotonic). It sits below core so the deployment
// search can run the same schedulability analysis the verifier does,
// through the shared response-time cache.
//
// The derivation has two halves. Protos captures what a runnable
// contributes independently of where it is deployed; Rank turns the
// protos one ECU hosts into that ECU's task set. Build applies both to a
// whole mapping; core's verifier keeps the protos and re-ranks only the
// ECUs a mapping change touches.
package taskset

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"autorte/internal/model"
	"autorte/internal/sched"
	"autorte/internal/sim"
)

// Proto is the mapping-independent analysis input of one runnable.
// Effective periods derive from triggers and connectors only, so a proto
// survives any re-mapping; only the hosting ECU's speed scaling and the
// priority ranks are deployment-dependent.
type Proto struct {
	Comp, Run string
	// Name is the sched.Task name, Comp + "." + Run.
	Name string
	// Period is the derived rate; <= 0 when none is derivable.
	Period   sim.Duration
	WCET     sim.Duration
	Deadline sim.Duration
	key      string // Comp + Run: the RTE generator's priority tie-break
}

// Protos appends one Proto per runnable of comp, in declaration order.
func Protos(dst []Proto, sys *model.System, comp *model.SWC) []Proto {
	for i := range comp.Runnables {
		run := &comp.Runnables[i]
		dst = append(dst, Proto{
			Comp: comp.Name, Run: run.Name,
			Name:     comp.Name + "." + run.Name,
			Period:   sys.EffectivePeriod(comp, run),
			WCET:     run.WCETNominal,
			Deadline: run.Deadline,
			key:      comp.Name + run.Name,
		})
	}
	return dst
}

// Rank sorts the protos one ECU hosts — gathered component by component
// in declaration order — into the RTE generator's priority order and
// appends the ECU's analyzable task set to tasks and one warning per
// rate-less runnable to warnings. The order is rate-monotonic on the
// derived rate with the generator's tie-break, stable; rate-less
// runnables sort first (treated as urgent sporadic handlers) and take a
// priority rank but are excluded from the analysis. WCETs scale by the
// ECU's speed. hosted is sorted in place.
func Rank(hosted []Proto, speed float64, tasks []sched.Task, warnings []string) ([]sched.Task, []string) {
	slices.SortStableFunc(hosted, func(a, b Proto) int {
		if c := cmp.Compare(a.Period, b.Period); c != 0 {
			return c
		}
		return strings.Compare(a.key, b.key)
	})
	for rank, p := range hosted {
		if p.Period <= 0 {
			warnings = append(warnings, fmt.Sprintf("%s.%s: no derivable rate; excluded from analysis", p.Comp, p.Run))
			continue
		}
		tasks = append(tasks, sched.Task{
			Name:     p.Name,
			C:        sim.Duration(float64(p.WCET) / speed),
			T:        p.Period,
			D:        p.Deadline,
			Priority: 1000 - rank,
		})
	}
	return tasks, warnings
}

// Build derives the analyzable task set per ECU. Event-driven runnables
// inherit the period of their triggering producer; runnables whose rate
// cannot be derived are skipped with a warning. Passive standby replicas
// are excluded entirely — suspended until a fail-over promotes them, they
// exert no demand in the normal case the analysis models (deploy's
// fail-over validity check analyzes the post-promotion sets). The output
// — including the warning order — is deterministic for a given system.
func Build(sys *model.System) (map[string][]sched.Task, []string) {
	perECU := map[string][]Proto{}
	var ecus []string
	for _, comp := range sys.Components {
		if comp.PassiveStandby() {
			continue
		}
		ecu := sys.Mapping[comp.Name]
		if _, seen := perECU[ecu]; !seen {
			ecus = append(ecus, ecu)
		}
		perECU[ecu] = Protos(perECU[ecu], sys, comp)
	}
	sort.Strings(ecus)
	out := map[string][]sched.Task{}
	var warnings []string
	for _, ecu := range ecus {
		speed := 1.0
		if e := sys.ECUByName(ecu); e != nil {
			speed = e.Speed
		}
		var tasks []sched.Task
		tasks, warnings = Rank(perECU[ecu], speed, nil, warnings)
		if tasks != nil {
			out[ecu] = tasks
		}
	}
	return out, warnings
}
