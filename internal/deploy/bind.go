package deploy

// The inner loop of every search in this package scores candidate
// mappings of ONE fixed topology: components, connectors, ECUs and buses
// never change between candidates, only the Mapping does. Evaluator.Bind
// exploits that invariant — it derives everything mapping-independent
// once (effective runnable rates, per-component load terms, ECU-pair bus
// reachability and harness distances, proto task sets, replica groups)
// so that the delta evaluator (Bound.Prepare, delta.go) scores a
// candidate mapping with just the per-ECU grouping plus the dirty ECUs'
// response-time analysis, memoized per move against the incumbent. It
// is the only scorer in the package: Evaluator.Evaluate is Bind, Prepare
// and Evaluate in one call, and Greedy and Place pack over a Bound's
// index state (firstFit).

import (
	"math"
	"sort"

	"autorte/internal/model"
	"autorte/internal/taskset"
	"autorte/internal/vfb"
)

type boundComp struct {
	name     string
	memoryKB int
	asil     model.ASIL
	// replicaOf/passive mirror the component's standby role: passive
	// standbys keep their protos (the fail-over analysis promotes them)
	// but contribute no normal-case load or schedulability demand,
	// matching AnalyzedLoad and taskset.Build.
	replicaOf string
	passive   bool
	// loadTerms holds WCETNominal/period per rated runnable, in runnable
	// order — AnalyzedLoad's summation terms before the speed division.
	loadTerms []float64
	// protos lists all runnables (rate-less included: they consume
	// priority ranks in the task set even though they are excluded from
	// the analysis).
	protos []taskset.Proto
}

type boundECU struct {
	name     string
	speed    float64
	memoryKB int
	maxASIL  model.ASIL
	pos      [2]float64
	// buses lists the channels the ECU is attached to — the fault model's
	// bus-loss events treat an ECU with every channel lost as isolated.
	buses []string
}

type boundConn struct {
	from, to int // component indices of the endpoints
	// needsPath is true when the connector produces at least one bus route
	// once remote (client-server always does; sender-receiver only with a
	// non-empty element set).
	needsPath bool
}

// Bound is an Evaluator fixed to one system topology: the scorer every
// search runs through Prepare. It is read-only after Bind and safe for
// concurrent use. The bound data reflects the topology at Bind time;
// candidates must differ from the base system in Mapping only (the DSE
// invariant: every candidate is a Clone of the seed with components
// moved).
type Bound struct {
	ev    *Evaluator
	comps []boundComp
	ecus  []boundECU
	// ecuIdx/compIdx index comps/ecus by name.
	ecuIdx  map[string]int
	compIdx map[string]int
	conns   []boundConn
	// path caches vfb.Path's verdict per ordered ECU index pair; nil =
	// reachable. dist holds the harness distance per ECU index pair.
	path [][]error
	dist [][]float64
	// ecuByName lists ECU indices in name order — the order the RTA
	// verdicts are reported in and first-fit tries ECUs in.
	ecuByName []int
	// group is each component's materialized replica group (an index
	// into redGroups), -1 outside one: first-fit keeps a group's
	// instances on distinct ECUs.
	group []int
	// cons is the evaluator's Constraints as of Bind, filled, and consErr
	// their Validate verdict: a Bound never reads ev.Cons again, so
	// changing it after Bind cannot change (or race with) scoring.
	cons    Constraints
	consErr error
	// red is the fail-operational check with the fault model resolved
	// against the topology: the replica groups it scores and, for
	// explicit Losses, the swept events.
	red *redCheck
}

// Bind precomputes the mapping-independent derivations of sys. It fails
// when the base topology itself is invalid.
func (ev *Evaluator) Bind(sys *model.System) (*Bound, error) {
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	cons := ev.Cons
	cons.fill()
	b := &Bound{
		ev:      ev,
		cons:    cons,
		consErr: cons.Validate(),
		ecuIdx:  make(map[string]int, len(sys.ECUs)),
		compIdx: make(map[string]int, len(sys.Components)),
		path:    make([][]error, len(sys.ECUs)),
		dist:    make([][]float64, len(sys.ECUs)),
	}
	b.ecus = bindECUs(sys)
	for i := range b.ecus {
		b.ecuIdx[b.ecus[i].name] = i
	}
	b.ecuByName = byName(len(b.ecus), func(i int) string { return b.ecus[i].name })
	b.comps = bindComps(sys)
	for i := range b.comps {
		b.compIdx[b.comps[i].name] = i
	}
	b.red = newRedCheck(b.comps, b.ecus, cons)
	b.group = make([]int, len(b.comps))
	for i := range b.group {
		b.group[i] = -1
	}
	for gi, g := range redGroups(b.comps) {
		b.group[g.primary] = gi
		for _, sb := range g.standbys {
			b.group[sb] = gi
		}
	}
	// Validate guarantees every connector endpoint is a known component.
	for _, c := range sys.Connectors {
		prov := sys.Component(c.FromSWC).Port(c.FromPort)
		req := sys.Component(c.ToSWC).Port(c.ToPort)
		needs := prov.Interface.Kind != model.SenderReceiver || len(req.Interface.Elements) > 0
		b.conns = append(b.conns, boundConn{from: b.compIdx[c.FromSWC], to: b.compIdx[c.ToSWC], needsPath: needs})
	}
	for si, src := range b.ecus {
		b.path[si] = make([]error, len(b.ecus))
		b.dist[si] = make([]float64, len(b.ecus))
		for di, dst := range b.ecus {
			b.dist[si][di] = math.Hypot(src.pos[0]-dst.pos[0], src.pos[1]-dst.pos[1])
			if si != di {
				_, _, _, b.path[si][di] = vfb.Path(sys, src.name, dst.name)
			}
		}
	}
	return b, nil
}

// byName returns the indices 0..n-1 sorted by name(i).
func byName(n int, name func(int) string) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return name(idx[i]) < name(idx[j]) })
	return idx
}

// mapping materializes a component-index -> ECU-index assignment as a
// Mapping.
func (b *Bound) mapping(ecuOf []int) map[string]string {
	m := make(map[string]string, len(ecuOf))
	for ci, ei := range ecuOf {
		m[b.comps[ci].name] = b.ecus[ei].name
	}
	return m
}

// bindECUs derives the mapping-independent per-ECU terms, in declaration
// order.
func bindECUs(sys *model.System) []boundECU {
	var ecus []boundECU
	for _, e := range sys.ECUs {
		ecus = append(ecus, boundECU{
			name: e.Name, speed: e.Speed, memoryKB: e.MemoryKB,
			maxASIL: e.MaxASIL, pos: e.Position, buses: e.Buses,
		})
	}
	return ecus
}

// bindComps derives the mapping-independent per-component terms, in
// declaration order. Passive standbys keep their loadTerms and protos —
// the fail-over absorption analysis charges them to the promotion target
// — but the normal-case accumulation loops skip them, matching
// AnalyzedLoad and taskset.Build.
func bindComps(sys *model.System) []boundComp {
	protos := taskset.Protos(sys)
	comps := make([]boundComp, len(sys.Components))
	for i, c := range sys.Components {
		comps[i] = boundComp{
			name: c.Name, memoryKB: c.MemoryKB, asil: c.ASIL,
			replicaOf: c.ReplicaOf, passive: c.PassiveStandby(),
			protos: protos[i],
		}
		for _, p := range protos[i] {
			if p.Period > 0 {
				comps[i].loadTerms = append(comps[i].loadTerms, float64(p.WCET)/float64(p.Period))
			}
		}
	}
	return comps
}
