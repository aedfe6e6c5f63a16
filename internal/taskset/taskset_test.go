package taskset_test

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"autorte/internal/core"
	"autorte/internal/deploy"
	"autorte/internal/model"
	"autorte/internal/rte"
	"autorte/internal/sched"
	"autorte/internal/sim"
	"autorte/internal/taskset"
	"autorte/internal/workload"
)

// refEntry is one hosted runnable of the reference ranking.
type refEntry struct {
	comp   *model.SWC
	run    *model.Runnable
	period sim.Duration
}

// runnablesOf lists the runnables of the hosted components, component by
// component in declaration order.
func runnablesOf(sys *model.System, hosted []*model.SWC) []refEntry {
	var out []refEntry
	for _, c := range hosted {
		for i := range c.Runnables {
			out = append(out, refEntry{c, &c.Runnables[i], sys.EffectivePeriod(c, &c.Runnables[i])})
		}
	}
	return out
}

// refOrder is the RTE generator's priority order as a per-ECU comparator:
// a stable sort of the hosted runnables, in declaration order, on
// (EffectivePeriod, component name + runnable name). Every ranking in the
// system must agree with it. es is sorted in place.
func refOrder(es []refEntry) []refEntry {
	sort.SliceStable(es, func(i, j int) bool {
		if es[i].period != es[j].period {
			return es[i].period < es[j].period
		}
		return es[i].comp.Name+es[i].run.Name < es[j].comp.Name+es[j].run.Name
	})
	return es
}

// refRank derives one ECU's reference task set and warnings from
// refOrder: Priority = 1000 − rank, WCET scaled by speed, rate-less
// runnables ranked but excluded with a warning.
func refRank(es []refEntry, speed float64) ([]sched.Task, []string) {
	var tasks []sched.Task
	var warnings []string
	for rank, e := range refOrder(es) {
		if e.period <= 0 {
			warnings = append(warnings, fmt.Sprintf("%s.%s: no derivable rate; excluded from analysis", e.comp.Name, e.run.Name))
			continue
		}
		tasks = append(tasks, sched.Task{
			Name: e.comp.Name + "." + e.run.Name,
			C:    sim.Duration(float64(e.run.WCETNominal) / speed),
			T:    e.period, D: e.run.Deadline, Priority: 1000 - rank,
		})
	}
	return tasks, warnings
}

// rankComps ranks the protos of the named components of sys.
func rankComps(sys *model.System, names []string, speed float64) ([]sched.Task, []string) {
	protos := taskset.Protos(sys)
	var hosted []*taskset.Proto
	for ci, c := range sys.Components {
		for _, n := range names {
			if c.Name == n {
				for j := range protos[ci] {
					hosted = append(hosted, &protos[ci][j])
				}
			}
		}
	}
	return taskset.Rank(hosted, speed, nil, nil)
}

func timed(name string, period sim.Duration) model.Runnable {
	return model.Runnable{Name: name, WCETNominal: sim.MS(1), Trigger: model.Trigger{Kind: model.TimingEvent, Period: period}}
}

func comp(name string, runs ...model.Runnable) *model.SWC {
	return &model.SWC{Name: name, Runnables: runs}
}

func TestRank(t *testing.T) {
	modeHandler := model.Runnable{Name: "h", WCETNominal: sim.MS(1), Trigger: model.Trigger{Kind: model.ModeSwitchEvent, Mode: "limp"}}
	producer := timed("tick", sim.MS(20))
	producer.Writes = []model.PortRef{{Port: "out", Elem: "v"}}
	consumer := model.Runnable{Name: "on", WCETNominal: sim.MS(1), Trigger: model.Trigger{Kind: model.DataReceivedEvent, Port: "in", Elem: "v"}}
	cases := []struct {
		name      string
		sys       *model.System
		hosted    []string
		speed     float64
		order     []string // task names, highest priority first
		warnings  []string
		firstPrio int
	}{
		{
			name:      "rate-less first and excluded",
			sys:       &model.System{Components: []*model.SWC{comp("A", timed("r", sim.MS(10))), comp("M", modeHandler)}},
			hosted:    []string{"A", "M"},
			speed:     1,
			order:     []string{"A.r"},
			warnings:  []string{"M.h: no derivable rate; excluded from analysis"},
			firstPrio: 999,
		},
		{
			name:      "rate-monotonic",
			sys:       &model.System{Components: []*model.SWC{comp("A", timed("slow", sim.MS(50)), timed("fast", sim.MS(5))), comp("B", timed("mid", sim.MS(10)))}},
			hosted:    []string{"A", "B"},
			speed:     1,
			order:     []string{"A.fast", "B.mid", "A.slow"},
			firstPrio: 1000,
		},
		{
			name:      "name tie-break",
			sys:       &model.System{Components: []*model.SWC{comp("b", timed("x", sim.MS(10))), comp("a", timed("y", sim.MS(10)))}},
			hosted:    []string{"a", "b"},
			speed:     1,
			order:     []string{"a.y", "b.x"},
			firstPrio: 1000,
		},
		{
			name:      "colliding concatenations keep declaration order",
			sys:       &model.System{Components: []*model.SWC{comp("ab", timed("c", sim.MS(10))), comp("a", timed("bc", sim.MS(10)))}},
			hosted:    []string{"a", "ab"},
			speed:     1,
			order:     []string{"ab.c", "a.bc"},
			firstPrio: 1000,
		},
		{
			name:      "colliding concatenations, swapped declaration",
			sys:       &model.System{Components: []*model.SWC{comp("a", timed("bc", sim.MS(10))), comp("ab", timed("c", sim.MS(10)))}},
			hosted:    []string{"a", "ab"},
			speed:     1,
			order:     []string{"a.bc", "ab.c"},
			firstPrio: 1000,
		},
		{
			name: "event-driven runnable inherits its producer's rate",
			sys: &model.System{
				Components: []*model.SWC{comp("P", producer), comp("C", consumer), comp("Q", timed("q", sim.MS(30)))},
				Connectors: []model.Connector{{FromSWC: "P", FromPort: "out", ToSWC: "C", ToPort: "in"}},
			},
			hosted:    []string{"Q", "C"},
			speed:     1,
			order:     []string{"C.on", "Q.q"},
			firstPrio: 1000,
		},
		{
			name:      "speed scaling",
			sys:       &model.System{Components: []*model.SWC{comp("A", timed("r", sim.MS(10)))}},
			hosted:    []string{"A"},
			speed:     2,
			order:     []string{"A.r"},
			firstPrio: 1000,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tasks, warnings := rankComps(tc.sys, tc.hosted, tc.speed)
			var hosted []*model.SWC
			for _, c := range tc.sys.Components {
				for _, n := range tc.hosted {
					if c.Name == n {
						hosted = append(hosted, c)
					}
				}
			}
			wantTasks, wantWarnings := refRank(runnablesOf(tc.sys, hosted), tc.speed)
			if !reflect.DeepEqual(tasks, wantTasks) || !reflect.DeepEqual(warnings, wantWarnings) {
				t.Fatalf("Rank = %+v, %q\nreference %+v, %q", tasks, warnings, wantTasks, wantWarnings)
			}
			var order []string
			for _, tk := range tasks {
				order = append(order, tk.Name)
			}
			if !reflect.DeepEqual(order, tc.order) || !reflect.DeepEqual(warnings, tc.warnings) {
				t.Fatalf("order %q, warnings %q; want %q, %q", order, warnings, tc.order, tc.warnings)
			}
			if tasks[0].Priority != tc.firstPrio {
				t.Fatalf("first priority %d, want %d", tasks[0].Priority, tc.firstPrio)
			}
			if want := sim.Duration(float64(sim.MS(1)) / tc.speed); tasks[0].C != want {
				t.Fatalf("WCET %v, want %v at speed %v", tasks[0].C, want, tc.speed)
			}
		})
	}
}

// Build leaves out passive standbys and components without a mapping
// entry; it never invents an ECU named "".
func TestBuildSkipsPassiveAndUnmapped(t *testing.T) {
	primary := comp("A", timed("r", sim.MS(10)))
	passive := comp("A#1", timed("r", sim.MS(10)))
	passive.ReplicaOf = "A"
	active := comp("A#2", timed("r", sim.MS(10)))
	active.ReplicaOf = "A"
	active.Redundancy.Mode = model.StandbyActive
	sys := &model.System{
		Components: []*model.SWC{primary, passive, active, comp("U", timed("r", sim.MS(5)))},
		ECUs:       []*model.ECU{{Name: "e1", Speed: 1}, {Name: "e2", Speed: 1}, {Name: "e3", Speed: 1}},
		Mapping:    map[string]string{"A": "e1", "A#1": "e2", "A#2": "e3"},
	}
	sets, warnings := taskset.Build(sys)
	if len(warnings) != 0 {
		t.Fatalf("warnings %q", warnings)
	}
	want := map[string][]string{"e1": {"A.r"}, "e3": {"A#2.r"}}
	got := map[string][]string{}
	for ecu, tasks := range sets {
		for _, tk := range tasks {
			got[ecu] = append(got[ecu], tk.Name)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Build = %q, want %q", got, want)
	}
}

func vehicle(t *testing.T, seed uint64) *model.System {
	t.Helper()
	sys, err := workload.GenerateVehicle(workload.VehicleSpec{}, sim.NewRand(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestBuildTaskSetsDerivesEventRates(t *testing.T) {
	sys := vehicle(t, 3)
	sets, warnings := taskset.Build(sys)
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
	total := 0
	for _, tasks := range sets {
		total += len(tasks)
		for _, tk := range tasks {
			if tk.T <= 0 {
				t.Fatalf("task %s has no derived period", tk.Name)
			}
		}
	}
	// 39 components x 1 runnable each.
	if total != 39 {
		t.Fatalf("analyzed %d tasks, want 39", total)
	}
}

// replicated gives every third component of a generated vehicle one
// standby, alternating passive and active, and maps each standby to the
// ECU after its primary's.
func replicated(t *testing.T, seed uint64) *model.System {
	t.Helper()
	base := vehicle(t, seed)
	for i, c := range base.Components {
		if i%3 == 0 {
			c.Redundancy = model.Redundancy{Replicas: 2, Mode: []model.ReplicaMode{model.StandbyPassive, model.StandbyActive}[i/3%2]}
		}
	}
	sys, err := deploy.Replicate(base)
	if err != nil {
		t.Fatal(err)
	}
	ecuIdx := map[string]int{}
	for i, e := range sys.ECUs {
		ecuIdx[e.Name] = i
	}
	for _, c := range sys.Components {
		if c.ReplicaOf != "" {
			sys.Mapping[c.Name] = sys.ECUs[(ecuIdx[sys.Mapping[c.ReplicaOf]]+1)%len(sys.ECUs)].Name
		}
	}
	return sys
}

// hostedOn lists the components mapped to ecu, in declaration order,
// passive standbys only when withPassive is set.
func hostedOn(sys *model.System, ecu string, withPassive bool) []*model.SWC {
	var out []*model.SWC
	for _, c := range sys.Components {
		if sys.Mapping[c.Name] == ecu && (withPassive || !c.PassiveStandby()) {
			out = append(out, c)
		}
	}
	return out
}

// Every consumer of the priority rule follows the reference order on
// generated vehicles under federated, consolidated and replicated
// mappings: the OS tasks rte.Build generates, the task sets Verify
// analyzes, and Build's task sets, which deploy's Prepared scorer
// analyzes in the normal case and after each single-ECU fail-over.
func TestConsumersFollowReferenceOrder(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		fed := vehicle(t, seed)
		greedy, err := deploy.Greedy(fed, deploy.Constraints{})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []struct {
			name string
			sys  *model.System
		}{{"federated", fed}, {"greedy", greedy}, {"replicated", replicated(t, seed)}} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, m.name), func(t *testing.T) {
				checkRTE(t, m.sys)
				checkVerify(t, m.sys)
				checkBuild(t, m.sys)
			})
		}
	}
}

func checkRTE(t *testing.T, sys *model.System) {
	p, err := rte.Build(sys, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sys.ECUs {
		var got, want []string
		for _, tk := range p.CPU(e.Name).Tasks() {
			got = append(got, fmt.Sprintf("%s@%d", tk.Name, tk.Priority))
		}
		for rank, r := range refOrder(runnablesOf(sys, hostedOn(sys, e.Name, true))) {
			want = append(want, fmt.Sprintf("%s.%s@%d", r.comp.Name, r.run.Name, 1000-rank))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rte OS tasks on %s:\n got %q\nwant %q", e.Name, got, want)
		}
	}
}

func checkVerify(t *testing.T, sys *model.System) {
	rep, err := core.Verify(sys, nil, rte.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]sched.Task{}
	for _, er := range rep.ECUs {
		for _, r := range er.Results {
			got[er.Name] = append(got[er.Name], r.Task)
		}
	}
	want := map[string][]sched.Task{}
	for _, e := range sys.ECUs {
		if tasks, _ := refRank(runnablesOf(sys, hostedOn(sys, e.Name, false)), e.Speed); tasks != nil {
			want[e.Name] = tasks
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Verify's analyzed task sets differ from the reference:\n got %+v\nwant %+v", got, want)
	}
}

// checkBuild compares Build's task set of every ECU with the reference.
// deploy's TestPreparedAnalyzesBuiltTaskSets holds the task sets the
// Prepared scorer analyzes, fail-over targets included, to Build's.
func checkBuild(t *testing.T, sys *model.System) {
	got, _ := taskset.Build(sys)
	want := map[string][]sched.Task{}
	for _, e := range sys.ECUs {
		if tasks, _ := refRank(runnablesOf(sys, hostedOn(sys, e.Name, false)), e.Speed); tasks != nil {
			want[e.Name] = tasks
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Build's task sets differ from the reference:\n got %+v\nwant %+v", got, want)
	}
}

type fuzzInput []byte

func (in *fuzzInput) next(n int) int {
	if len(*in) == 0 || n <= 0 {
		return 0
	}
	v := int((*in)[0])
	*in = (*in)[1:]
	return v % n
}

// fuzzSystem decodes a system of 1–6 components with 1–3 runnables each.
// Names come from small alphabets, so component + runnable concatenations
// collide ("ab"+"c" and "a"+"bc"). Each runnable is timed (5, 10 or 20
// ms, so periods tie), a rate-less mode handler, or data-received on a
// connector from a chosen runnable's output — a rate inherited along a
// chain, or none across a cycle.
func fuzzSystem(in *fuzzInput) *model.System {
	compNames := []string{"a", "ab", "abc", "b", "ba", "bc"}
	sys := &model.System{}
	type feed struct{ to, run, from, fromRun int }
	var feeds []feed
	for n := 1 + in.next(6); n > 0 && len(compNames) > 0; n-- {
		k := in.next(len(compNames))
		c := &model.SWC{Name: compNames[k]}
		compNames = append(compNames[:k:k], compNames[k+1:]...)
		runNames := []string{"c", "bc", "x", "cx"}
		for m := 1 + in.next(3); m > 0; m-- {
			k := in.next(len(runNames))
			r := model.Runnable{Name: runNames[k], WCETNominal: sim.US(float64(100 * (1 + in.next(20))))}
			runNames = append(runNames[:k:k], runNames[k+1:]...)
			r.Writes = []model.PortRef{{Port: "o" + r.Name, Elem: "v"}}
			switch kind := in.next(5); kind {
			case 0:
				r.Trigger = model.Trigger{Kind: model.ModeSwitchEvent, Mode: "m"}
			case 1:
				r.Trigger = model.Trigger{Kind: model.DataReceivedEvent, Port: "i" + r.Name, Elem: "v"}
				feeds = append(feeds, feed{to: len(sys.Components), run: len(c.Runnables), from: in.next(256), fromRun: in.next(256)})
			default:
				r.Trigger = model.Trigger{Kind: model.TimingEvent, Period: []sim.Duration{sim.MS(5), sim.MS(10), sim.MS(20)}[kind-2]}
			}
			c.Runnables = append(c.Runnables, r)
		}
		sys.Components = append(sys.Components, c)
	}
	for _, f := range feeds {
		from := sys.Components[f.from%len(sys.Components)]
		fromRun := from.Runnables[f.fromRun%len(from.Runnables)]
		to := sys.Components[f.to]
		sys.Connectors = append(sys.Connectors, model.Connector{
			FromSWC: from.Name, FromPort: "o" + fromRun.Name,
			ToSWC: to.Name, ToPort: "i" + to.Runnables[f.run].Name,
		})
	}
	return sys
}

// FuzzRank holds Rank to the reference comparator on random systems: a
// random hosted set of whole components, then a random subset of the
// system's protos handed over in a scrambled order, each at a random
// ECU speed.
func FuzzRank(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 0, 2, 0, 2, 1, 3, 1, 1, 1, 3, 0, 4, 2, 9, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{1, 1, 0, 0, 2, 0, 0, 0, 2, 255, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{3, 0, 1, 1, 0, 1, 0, 7, 3, 1, 0, 0, 1, 2, 0, 2, 1, 0, 5, 0, 2, 4, 63, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		sys := fuzzSystem(&in)
		protos := taskset.Protos(sys)
		speed := []float64{0.5, 1, 1.5, 2, 3}[in.next(5)]

		var comps []*model.SWC
		var hosted []*taskset.Proto
		for ci, c := range sys.Components {
			if in.next(2) == 1 {
				comps = append(comps, c)
				for j := range protos[ci] {
					hosted = append(hosted, &protos[ci][j])
				}
			}
		}
		tasks, warnings := taskset.Rank(hosted, speed, nil, nil)
		wantTasks, wantWarnings := refRank(runnablesOf(sys, comps), speed)
		if !reflect.DeepEqual(tasks, wantTasks) || !reflect.DeepEqual(warnings, wantWarnings) {
			t.Fatalf("hosted components: Rank = %+v, %q\nreference %+v, %q", tasks, warnings, wantTasks, wantWarnings)
		}

		var subset []refEntry
		hosted = hosted[:0]
		for ci, c := range sys.Components {
			for j := range c.Runnables {
				if in.next(2) == 1 {
					subset = append(subset, refEntry{c, &c.Runnables[j], sys.EffectivePeriod(c, &c.Runnables[j])})
					hosted = append(hosted, &protos[ci][j])
				}
			}
		}
		if len(hosted) > 0 {
			k := in.next(len(hosted))
			hosted = append(hosted[k:], hosted[:k]...)
		}
		if in.next(2) == 1 {
			slices.Reverse(hosted)
		}
		tasks, warnings = taskset.Rank(hosted, speed, nil, nil)
		wantTasks, wantWarnings = refRank(subset, speed)
		if !reflect.DeepEqual(tasks, wantTasks) || !reflect.DeepEqual(warnings, wantWarnings) {
			t.Fatalf("proto subset: Rank = %+v, %q\nreference %+v, %q", tasks, warnings, wantTasks, wantWarnings)
		}
	})
}
