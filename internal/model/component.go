package model

import (
	"fmt"
	"maps"

	"autorte/internal/sim"
)

// PortDirection distinguishes provided from required ports.
type PortDirection uint8

const (
	// Provided ports (AUTOSAR P-ports) offer an interface.
	Provided PortDirection = iota
	// Required ports (AUTOSAR R-ports) consume an interface.
	Required
)

func (d PortDirection) String() string {
	if d == Provided {
		return "provided"
	}
	return "required"
}

// Port is a typed connection point of a software component.
type Port struct {
	Name      string
	Direction PortDirection
	Interface *PortInterface
}

// EventKind enumerates the RTE events that can trigger a runnable.
type EventKind uint8

const (
	// TimingEvent triggers periodically.
	TimingEvent EventKind = iota
	// DataReceivedEvent triggers when a data element arrives on a port.
	DataReceivedEvent
	// OperationInvokedEvent triggers when a server operation is called.
	OperationInvokedEvent
	// ModeSwitchEvent triggers on a platform mode change (e.g. an error
	// handling mode entered after a detected sensor fault, §2).
	ModeSwitchEvent
)

func (k EventKind) String() string {
	switch k {
	case TimingEvent:
		return "timing"
	case DataReceivedEvent:
		return "data-received"
	case OperationInvokedEvent:
		return "operation-invoked"
	default:
		return "mode-switch"
	}
}

// Trigger attaches an RTE event to a runnable.
type Trigger struct {
	Kind   EventKind
	Period sim.Duration // TimingEvent: activation period
	Offset sim.Duration // TimingEvent: first activation offset
	Port   string       // DataReceivedEvent / OperationInvokedEvent: port name
	Elem   string       // element or operation name on that port
	Mode   string       // ModeSwitchEvent: mode name
}

// Runnable is the schedulable unit inside a component: a piece of
// application code with a WCET, triggered by RTE events, reading and
// writing ports. The paper's "vertical assumptions" decorate runnables
// with resource budgets; WCETNominal is that budget.
type Runnable struct {
	Name        string
	WCETNominal sim.Duration // execution demand on the reference core
	BCET        sim.Duration // best case; 0 means equal to WCET
	Trigger     Trigger
	Reads       []PortRef    // data read at start
	Writes      []PortRef    // data written at completion
	Deadline    sim.Duration // relative deadline; 0 means the period
}

// PortRef names a data element on a component port.
type PortRef struct {
	Port string
	Elem string
}

// SWC is an atomic AUTOSAR-like software component: ports plus runnables
// plus internal behaviour description. SWCs are the unit of supplier
// delivery and of deployment to ECUs.
type SWC struct {
	Name      string
	Supplier  string // IP owner; timing isolation is evaluated per supplier
	DAS       string // distributed application subsystem (power-train, chassis, ...)
	ASIL      ASIL   // criticality
	Ports     []Port
	Runnables []Runnable
	// MemoryKB approximates the RAM footprint, consumed from ECU resources
	// at deployment time.
	MemoryKB int
	Config   ConfigSet // configuration parameters by class
	// Redundancy declares the component's fail-operational replication
	// requirement. The zero value means a single, unreplicated instance.
	Redundancy Redundancy
	// ReplicaOf names the primary this component is a standby replica of.
	// Empty on primaries; set by deploy.Replicate when it materializes the
	// standby instances of a redundancy spec.
	ReplicaOf string `json:",omitempty"`
}

// ReplicaMode selects how a standby replica consumes resources before a
// fail-over promotes it (Becker et al.'s active/passive distinction).
type ReplicaMode uint8

const (
	// StandbyPassive replicas are deployed — they consume memory and keep
	// warm input state — but their runnables stay suspended until a
	// fail-over promotes them, so they demand no CPU in the normal case.
	// The deployment analysis checks instead that the hosting ECU can
	// absorb their load after the primary's ECU fails.
	StandbyPassive ReplicaMode = iota
	// StandbyActive replicas run continuously (hot redundancy): full CPU
	// demand in the normal case, instantaneous takeover on fail-over.
	StandbyActive
)

func (m ReplicaMode) String() string {
	switch m {
	case StandbyPassive:
		return "passive"
	case StandbyActive:
		return "active"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Redundancy is the per-SWC fail-operational replication spec.
type Redundancy struct {
	// Replicas is the total number of deployed instances, primary
	// included. 0 and 1 both mean "no redundancy".
	Replicas int
	// Mode selects passive (default) or active standby behaviour.
	Mode ReplicaMode
}

// Replicated reports whether the spec asks for at least one standby.
func (r Redundancy) Replicated() bool { return r.Replicas > 1 }

// Clone returns a copy of the component that shares no slice or map
// with it: its ports, runnables and configuration parameters are copied
// one level deep. System.Clone copies every component this way.
func (c *SWC) Clone() *SWC {
	cc := *c
	cc.Ports = append([]Port(nil), c.Ports...)
	cc.Runnables = append([]Runnable(nil), c.Runnables...)
	cc.Config.Params = maps.Clone(c.Config.Params)
	return &cc
}

// IsStandby reports whether this component is a materialized standby
// replica of another component.
func (c *SWC) IsStandby() bool { return c.ReplicaOf != "" }

// PassiveStandby reports whether this component is a standby replica that
// stays suspended (zero CPU demand) until promoted. The capacity model
// (AnalyzedLoad, taskset.Build, the deployment evaluators) excludes
// passive standbys from normal-case load and schedulability; the
// fail-over validity check in deploy covers their post-promotion demand.
func (c *SWC) PassiveStandby() bool {
	return c.ReplicaOf != "" && c.Redundancy.Mode == StandbyPassive
}

// ASIL is the automotive safety integrity level (ISO 26262 scale, with QM
// as the non-safety class). The paper predates ISO 26262 but its notion of
// "DASes of different criticality" maps directly.
type ASIL uint8

const (
	QM ASIL = iota
	ASILA
	ASILB
	ASILC
	ASILD
)

func (a ASIL) String() string {
	switch a {
	case QM:
		return "QM"
	case ASILA:
		return "ASIL-A"
	case ASILB:
		return "ASIL-B"
	case ASILC:
		return "ASIL-C"
	default:
		return "ASIL-D"
	}
}

// Port returns the named port, or nil.
func (c *SWC) Port(name string) *Port {
	for i := range c.Ports {
		if c.Ports[i].Name == name {
			return &c.Ports[i]
		}
	}
	return nil
}

// Runnable returns the named runnable, or nil.
func (c *SWC) Runnable(name string) *Runnable {
	for i := range c.Runnables {
		if c.Runnables[i].Name == name {
			return &c.Runnables[i]
		}
	}
	return nil
}

// Validate checks the component's internal consistency: ports well-formed,
// triggers referencing existing ports, WCETs positive.
func (c *SWC) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("component with empty name")
	}
	portSeen := map[string]bool{}
	for i := range c.Ports {
		p := &c.Ports[i]
		if p.Name == "" {
			return fmt.Errorf("component %s: port with empty name", c.Name)
		}
		if portSeen[p.Name] {
			return fmt.Errorf("component %s: duplicate port %s", c.Name, p.Name)
		}
		portSeen[p.Name] = true
		if p.Interface == nil {
			return fmt.Errorf("component %s port %s: nil interface", c.Name, p.Name)
		}
		if err := p.Interface.Validate(); err != nil {
			return fmt.Errorf("component %s port %s: %w", c.Name, p.Name, err)
		}
	}
	if len(c.Runnables) == 0 {
		return fmt.Errorf("component %s: no runnables", c.Name)
	}
	if c.Redundancy.Replicas < 0 {
		return fmt.Errorf("component %s: negative replica count %d", c.Name, c.Redundancy.Replicas)
	}
	if c.ReplicaOf != "" && c.Redundancy.Replicated() {
		return fmt.Errorf("component %s: standby replica of %s cannot itself request %d replicas", c.Name, c.ReplicaOf, c.Redundancy.Replicas)
	}
	if c.ReplicaOf == c.Name && c.Name != "" {
		return fmt.Errorf("component %s: replica of itself", c.Name)
	}
	runSeen := map[string]bool{}
	for i := range c.Runnables {
		r := &c.Runnables[i]
		if r.Name == "" {
			return fmt.Errorf("component %s: runnable with empty name", c.Name)
		}
		if runSeen[r.Name] {
			return fmt.Errorf("component %s: duplicate runnable %s", c.Name, r.Name)
		}
		runSeen[r.Name] = true
		if r.WCETNominal <= 0 {
			return fmt.Errorf("component %s runnable %s: non-positive WCET", c.Name, r.Name)
		}
		if r.BCET < 0 || (r.BCET > 0 && r.BCET > r.WCETNominal) {
			return fmt.Errorf("component %s runnable %s: BCET %v exceeds WCET %v", c.Name, r.Name, r.BCET, r.WCETNominal)
		}
		switch r.Trigger.Kind {
		case TimingEvent:
			if r.Trigger.Period <= 0 {
				return fmt.Errorf("component %s runnable %s: timing event with non-positive period", c.Name, r.Name)
			}
		case DataReceivedEvent, OperationInvokedEvent:
			if !portSeen[r.Trigger.Port] {
				return fmt.Errorf("component %s runnable %s: trigger references unknown port %q", c.Name, r.Name, r.Trigger.Port)
			}
		case ModeSwitchEvent:
			if r.Trigger.Mode == "" {
				return fmt.Errorf("component %s runnable %s: mode-switch trigger with empty mode", c.Name, r.Name)
			}
		}
		for _, ref := range r.Reads {
			if !portSeen[ref.Port] {
				return fmt.Errorf("component %s runnable %s: access to unknown port %q", c.Name, r.Name, ref.Port)
			}
		}
		for _, ref := range r.Writes {
			if !portSeen[ref.Port] {
				return fmt.Errorf("component %s runnable %s: access to unknown port %q", c.Name, r.Name, ref.Port)
			}
		}
	}
	return nil
}

// Utilization returns the processor demand of the component's timing-
// triggered runnables (sum of WCET/period) on the reference core.
func (c *SWC) Utilization() float64 {
	u := 0.0
	for i := range c.Runnables {
		r := &c.Runnables[i]
		if r.Trigger.Kind == TimingEvent && r.Trigger.Period > 0 {
			u += float64(r.WCETNominal) / float64(r.Trigger.Period)
		}
	}
	return u
}
