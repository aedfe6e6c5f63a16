package model

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"autorte/internal/sim"
)

// BusKind enumerates the communication technologies the paper discusses.
type BusKind uint8

const (
	// BusCAN is the event-triggered priority bus.
	BusCAN BusKind = iota
	// BusFlexRay is the hybrid time/event-triggered bus.
	BusFlexRay
	// BusTTP is the fully time-triggered protocol with membership.
	BusTTP
)

func (b BusKind) String() string {
	switch b {
	case BusCAN:
		return "CAN"
	case BusFlexRay:
		return "FlexRay"
	default:
		return "TTP"
	}
}

// Bus describes a physical communication channel.
type Bus struct {
	Name    string
	Kind    BusKind
	BitRate int64 // bits per second
}

// ECU describes an electronic control unit's resources ("ECU resources"
// are one of the three AUTOSAR methodology inputs, §2).
type ECU struct {
	Name string
	// Speed scales runnable WCETs: demand = WCETNominal / Speed.
	Speed float64
	// MemoryKB is the RAM available to hosted SWCs.
	MemoryKB int
	// Buses lists the channels this ECU is attached to.
	Buses []string
	// Position is the (x, y) mounting location in the vehicle, in meters;
	// used to estimate harness (wiring) length for the federated study.
	Position [2]float64
	// MaxASIL is the highest criticality the ECU's hardware qualifies for.
	MaxASIL ASIL
}

// Connector joins a required port to a provided port at the VFB level.
type Connector struct {
	FromSWC, FromPort string // provider side
	ToSWC, ToPort     string // requirer side
}

// LatencyConstraint is a system constraint on an event chain: data leaving
// First must reach Last within Budget (end-to-end latency, §3).
type LatencyConstraint struct {
	Name   string
	Chain  []PortRef2 // ordered hops: component+port pairs
	Budget sim.Duration
}

// PortRef2 names a port on a specific component instance.
type PortRef2 struct {
	SWC, Port string
}

// System is the complete self-contained description the AUTOSAR
// methodology works on: software components, ECU resources and system
// constraints, plus the VFB connector network.
type System struct {
	Name        string
	Components  []*SWC
	Interfaces  []*PortInterface
	ECUs        []*ECU
	Buses       []*Bus
	Connectors  []Connector
	Constraints []LatencyConstraint
	// Mapping assigns each SWC to an ECU (by name). Empty until deployment.
	Mapping map[string]string
}

// Hash returns a short deterministic fingerprint of the system
// configuration ("sha256:<16 hex>"). Diagnostic bundles carry it so an
// offline analysis can tell whether two bundles came from the same
// platform configuration before diffing them. Empty on a nil system.
func (s *System) Hash() string {
	if s == nil {
		return ""
	}
	raw, err := json.Marshal(s)
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(raw)
	return "sha256:" + hex.EncodeToString(sum[:8])
}

// Component returns the named SWC, or nil.
func (s *System) Component(name string) *SWC {
	for _, c := range s.Components {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ECUByName returns the named ECU, or nil.
func (s *System) ECUByName(name string) *ECU {
	for _, e := range s.ECUs {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// BusByName returns the named bus, or nil.
func (s *System) BusByName(name string) *Bus {
	for _, b := range s.Buses {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Validate checks the whole system: component validity, connector
// endpoints, interface compatibility across every connector, mapping
// targets, and constraint chains.
func (s *System) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("system with empty name")
	}
	compSeen := map[string]bool{}
	for _, c := range s.Components {
		if compSeen[c.Name] {
			return fmt.Errorf("duplicate component %s", c.Name)
		}
		compSeen[c.Name] = true
		if err := c.Validate(); err != nil {
			return err
		}
	}
	for _, c := range s.Components {
		if c.ReplicaOf == "" {
			continue
		}
		primary := s.Component(c.ReplicaOf)
		if primary == nil {
			return fmt.Errorf("component %s: replica of unknown component %q", c.Name, c.ReplicaOf)
		}
		if primary.IsStandby() {
			return fmt.Errorf("component %s: replica of %s, which is itself a standby", c.Name, c.ReplicaOf)
		}
	}
	ecuSeen := map[string]bool{}
	for _, e := range s.ECUs {
		if ecuSeen[e.Name] {
			return fmt.Errorf("duplicate ECU %s", e.Name)
		}
		ecuSeen[e.Name] = true
		if e.Speed <= 0 {
			return fmt.Errorf("ECU %s: non-positive speed", e.Name)
		}
		for _, b := range e.Buses {
			if s.BusByName(b) == nil {
				return fmt.Errorf("ECU %s: attached to unknown bus %q", e.Name, b)
			}
		}
	}
	for _, b := range s.Buses {
		if b.BitRate <= 0 {
			return fmt.Errorf("bus %s: non-positive bit rate", b.Name)
		}
	}
	for i, conn := range s.Connectors {
		if err := s.validateConnector(conn); err != nil {
			return fmt.Errorf("connector %d: %w", i, err)
		}
	}
	// The first bad entry in component-name order, so that the diagnostic
	// does not vary with map iteration order.
	bad, found := "", false
	for swc, ecu := range s.Mapping {
		if (s.Component(swc) == nil || s.ECUByName(ecu) == nil) && (!found || swc < bad) {
			bad, found = swc, true
		}
	}
	if found {
		if s.Component(bad) == nil {
			return fmt.Errorf("mapping references unknown component %q", bad)
		}
		return fmt.Errorf("mapping of %s references unknown ECU %q", bad, s.Mapping[bad])
	}
	for _, lc := range s.Constraints {
		if len(lc.Chain) < 2 {
			return fmt.Errorf("constraint %s: chain needs at least two hops", lc.Name)
		}
		if lc.Budget <= 0 {
			return fmt.Errorf("constraint %s: non-positive budget", lc.Name)
		}
		for _, h := range lc.Chain {
			c := s.Component(h.SWC)
			if c == nil {
				return fmt.Errorf("constraint %s: unknown component %q", lc.Name, h.SWC)
			}
			if c.Port(h.Port) == nil {
				return fmt.Errorf("constraint %s: component %s has no port %q", lc.Name, h.SWC, h.Port)
			}
		}
	}
	return nil
}

func (s *System) validateConnector(conn Connector) error {
	from := s.Component(conn.FromSWC)
	if from == nil {
		return fmt.Errorf("unknown provider component %q", conn.FromSWC)
	}
	to := s.Component(conn.ToSWC)
	if to == nil {
		return fmt.Errorf("unknown requirer component %q", conn.ToSWC)
	}
	fp := from.Port(conn.FromPort)
	if fp == nil {
		return fmt.Errorf("component %s has no port %q", conn.FromSWC, conn.FromPort)
	}
	tp := to.Port(conn.ToPort)
	if tp == nil {
		return fmt.Errorf("component %s has no port %q", conn.ToSWC, conn.ToPort)
	}
	if fp.Direction != Provided {
		return fmt.Errorf("%s.%s is not a provided port", conn.FromSWC, conn.FromPort)
	}
	if tp.Direction != Required {
		return fmt.Errorf("%s.%s is not a required port", conn.ToSWC, conn.ToPort)
	}
	if err := Compatible(tp.Interface, fp.Interface); err != nil {
		return fmt.Errorf("%s.%s -> %s.%s: %w", conn.FromSWC, conn.FromPort, conn.ToSWC, conn.ToPort, err)
	}
	return nil
}

// IsRemote reports whether a connector crosses ECUs under the current
// mapping. Unmapped endpoints count as local.
func (s *System) IsRemote(conn Connector) bool {
	a, b := s.Mapping[conn.FromSWC], s.Mapping[conn.ToSWC]
	return a != "" && b != "" && a != b
}

// HarnessLength estimates total wiring length: for every remote connector,
// the Euclidean distance between the two ECUs (a proxy for "physical wires
// and physical contact points", §4).
func (s *System) HarnessLength() float64 {
	total := 0.0
	for _, conn := range s.Connectors {
		if !s.IsRemote(conn) {
			continue
		}
		a := s.ECUByName(s.Mapping[conn.FromSWC])
		b := s.ECUByName(s.Mapping[conn.ToSWC])
		if a == nil || b == nil {
			continue
		}
		dx := a.Position[0] - b.Position[0]
		dy := a.Position[1] - b.Position[1]
		total += math.Hypot(dx, dy)
	}
	return total
}

// UsedECUs returns the names of ECUs that host at least one component.
func (s *System) UsedECUs() []string {
	used := map[string]bool{}
	for _, e := range s.Mapping {
		used[e] = true
	}
	var out []string
	for _, e := range s.ECUs {
		if used[e.Name] {
			out = append(out, e.Name)
		}
	}
	return out
}

// ECULoad returns the utilization an ECU carries under the current
// mapping, accounting for ECU speed.
func (s *System) ECULoad(ecu string) float64 {
	e := s.ECUByName(ecu)
	if e == nil {
		return 0
	}
	u := 0.0
	for _, c := range s.Components {
		if s.Mapping[c.Name] == ecu {
			u += c.Utilization() / e.Speed
		}
	}
	return u
}

// EffectivePeriod derives a runnable's activation rate: its own period
// for timing events, the transitively-resolved producer period for
// data-received and operation-invoked events, and 0 when no rate can be
// derived (e.g. mode-switch handlers). The RTE's priority assignment, the
// schedulability analysis and the deployment capacity model all share
// this derivation so their views of the system agree.
func (s *System) EffectivePeriod(comp *SWC, run *Runnable) sim.Duration {
	return s.effectivePeriod(comp, run, nil)
}

func (s *System) effectivePeriod(comp *SWC, run *Runnable, seen map[string]bool) sim.Duration {
	// Timing and mode-switch triggers answer directly — the common case,
	// and the base of every derivation chain — before any cycle-tracking
	// state is touched, so the O(n log n) calls the task-set sort makes
	// stay allocation-free.
	switch run.Trigger.Kind {
	case TimingEvent:
		return run.Trigger.Period
	case ModeSwitchEvent:
		// Mode switches are sporadic by nature: no derivable period.
		return 0
	default:
		// DataReceivedEvent / OperationInvokedEvent: derived below, with
		// cycle tracking.
	}
	key := comp.Name + "." + run.Name
	if seen[key] {
		return 0 // dependency cycle
	}
	if seen == nil {
		// Allocated only when a derivation actually recurses.
		seen = make(map[string]bool, 4)
	}
	seen[key] = true
	switch run.Trigger.Kind {
	case DataReceivedEvent:
		for _, conn := range s.Connectors {
			if conn.ToSWC != comp.Name || conn.ToPort != run.Trigger.Port {
				continue
			}
			prov := s.Component(conn.FromSWC)
			if prov == nil {
				return 0
			}
			for i := range prov.Runnables {
				pr := &prov.Runnables[i]
				for _, w := range pr.Writes {
					if w.Port == conn.FromPort {
						return s.effectivePeriod(prov, pr, seen)
					}
				}
			}
		}
	case OperationInvokedEvent:
		for _, conn := range s.Connectors {
			if conn.FromSWC != comp.Name || conn.FromPort != run.Trigger.Port {
				continue
			}
			client := s.Component(conn.ToSWC)
			if client == nil {
				return 0
			}
			// Heuristic: the client's fastest derivable runnable drives
			// invocations.
			var best sim.Duration
			for i := range client.Runnables {
				cr := &client.Runnables[i]
				if p := s.effectivePeriod(client, cr, seen); p > 0 && (best == 0 || p < best) {
					best = p
				}
			}
			return best
		}
	default:
		// TimingEvent / ModeSwitchEvent already answered above.
	}
	return 0
}

// AnalyzedLoad returns an ECU's full processor demand under the current
// mapping, counting event-driven runnables at their derived rates (unlike
// ECULoad, which only sees declared periodic work). Deployment decisions
// must use this so that what the packer admits, the analysis can verify.
// Passive standby replicas demand no CPU until a fail-over promotes them,
// so they are excluded here; deploy's fail-over validity check covers
// their post-promotion demand.
func (s *System) AnalyzedLoad(ecu string) float64 {
	e := s.ECUByName(ecu)
	if e == nil {
		return 0
	}
	u := 0.0
	for _, c := range s.Components {
		if s.Mapping[c.Name] != ecu || c.PassiveStandby() {
			continue
		}
		for i := range c.Runnables {
			r := &c.Runnables[i]
			if p := s.EffectivePeriod(c, r); p > 0 {
				u += float64(r.WCETNominal) / float64(p) / e.Speed
			}
		}
	}
	return u
}

// Clone returns a deep copy of the system. DSE mutates clones, never the
// original.
func (s *System) Clone() *System {
	out := &System{Name: s.Name}
	for _, c := range s.Components {
		out.Components = append(out.Components, c.Clone())
	}
	for _, i := range s.Interfaces {
		ii := *i
		ii.Elements = append([]DataElement(nil), i.Elements...)
		ii.Operations = append([]Operation(nil), i.Operations...)
		out.Interfaces = append(out.Interfaces, &ii)
	}
	for _, e := range s.ECUs {
		ee := *e
		ee.Buses = append([]string(nil), e.Buses...)
		out.ECUs = append(out.ECUs, &ee)
	}
	for _, b := range s.Buses {
		bb := *b
		out.Buses = append(out.Buses, &bb)
	}
	out.Connectors = append([]Connector(nil), s.Connectors...)
	for _, lc := range s.Constraints {
		lc.Chain = append([]PortRef2(nil), lc.Chain...)
		out.Constraints = append(out.Constraints, lc)
	}
	if s.Mapping != nil {
		out.Mapping = make(map[string]string, len(s.Mapping))
		for k, v := range s.Mapping {
			out.Mapping[k] = v
		}
	}
	return out
}
