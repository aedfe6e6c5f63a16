// Package taskset owns the RTE generator's priority assignment: rate-
// monotonic order on each runnable's derived rate (event-driven runnables
// inherit their producer's), ties broken on component name + runnable
// name, Priority = 1000 − rank, WCETs scaled by the ECU's speed, and
// rate-less runnables ranked but left out of the analysis with a warning.
// rte, core's verifier and deploy's scorers all rank through it, so the
// OS tasks the RTE generates and every analysis of them agree.
//
// Protos derives what each runnable contributes independently of where
// it is deployed, including its place in the system-wide order; Rank
// turns the protos one ECU hosts into that ECU's task set. Each caller
// picks the hosted set: Build and the verifier skip passive standbys and
// unmapped components, deploy's fail-over check adds promoted standbys,
// and rte ranks every mapped component.
package taskset

import (
	"cmp"
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
// per-ECU ranks are deployment-dependent.
type Proto struct {
	Comp *model.SWC
	Run  *model.Runnable
	// Name is the sched.Task name, Comp.Name + "." + Run.Name.
	Name string
	// Period is the derived rate; <= 0 when none is derivable.
	Period   sim.Duration
	WCET     sim.Duration
	Deadline sim.Duration
	// ord is the proto's place in the system-wide priority order, so a
	// per-ECU ranking compares integers only.
	ord int
}

// Protos derives one Proto per runnable of sys, indexed like
// sys.Components, and places them in the system-wide priority order: a
// stable sort of all runnables, in declaration order, on (Period,
// component name + runnable name). Restricted to any hosted subset that
// is the subset's own stable sort, so Rank compares integers only.
func Protos(sys *model.System) [][]Proto {
	n := 0
	for _, comp := range sys.Components {
		n += len(comp.Runnables)
	}
	all := make([]Proto, 0, n)
	out := make([][]Proto, len(sys.Components))
	for i, comp := range sys.Components {
		lo := len(all)
		for j := range comp.Runnables {
			run := &comp.Runnables[j]
			all = append(all, Proto{
				Comp: comp, Run: run,
				Name:     comp.Name + "." + run.Name,
				Period:   sys.EffectivePeriod(comp, run),
				WCET:     run.WCETNominal,
				Deadline: run.Deadline,
			})
		}
		out[i] = all[lo:len(all):len(all)]
	}
	keys := make([]string, n)
	order := make([]int, n)
	for i := range all {
		keys[i] = all[i].Comp.Name + all[i].Run.Name
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		if c := cmp.Compare(all[a].Period, all[b].Period); c != 0 {
			return c
		}
		return strings.Compare(keys[a], keys[b])
	})
	for ord, i := range order {
		all[i].ord = ord
	}
	return out
}

// Order sorts the protos one ECU hosts, all from one Protos call, into
// the RTE generator's priority order: hosted[rank] runs at
// Priority(rank).
func Order(hosted []*Proto) {
	slices.SortFunc(hosted, func(a, b *Proto) int { return cmp.Compare(a.ord, b.ord) })
}

// Priority is the OS priority of the runnable at rank in its ECU's order.
func Priority(rank int) int { return 1000 - rank }

// Rank orders the protos one ECU hosts (see Order) and appends the ECU's
// analyzable task set to tasks and one warning per rate-less runnable to
// warnings. Rate-less runnables sort first (treated as urgent sporadic
// handlers) and take a priority rank but are excluded from the analysis.
// WCETs scale by the ECU's speed. hosted is sorted in place.
func Rank(hosted []*Proto, speed float64, tasks []sched.Task, warnings []string) ([]sched.Task, []string) {
	Order(hosted)
	for rank, p := range hosted {
		if p.Period <= 0 {
			warnings = append(warnings, p.Name+": no derivable rate; excluded from analysis")
			continue
		}
		tasks = append(tasks, sched.Task{
			Name:     p.Name,
			C:        sim.Duration(float64(p.WCET) / speed),
			T:        p.Period,
			D:        p.Deadline,
			Priority: Priority(rank),
		})
	}
	return tasks, warnings
}

// Build derives the analyzable task set per ECU. Passive standby
// replicas are excluded — suspended until a fail-over promotes them, they
// exert no demand in the normal case the analysis models — and so are
// components without a mapping entry, which have no ECU. The output,
// warning order included, is deterministic for a given system.
func Build(sys *model.System) (map[string][]sched.Task, []string) {
	protos := Protos(sys)
	perECU := map[string][]*Proto{}
	var ecus []string
	for ci, comp := range sys.Components {
		ecu, ok := sys.Mapping[comp.Name]
		if !ok || comp.PassiveStandby() {
			continue
		}
		hosted, seen := perECU[ecu]
		if !seen {
			ecus = append(ecus, ecu)
		}
		for j := range protos[ci] {
			hosted = append(hosted, &protos[ci][j])
		}
		perECU[ecu] = hosted
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
