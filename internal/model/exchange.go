package model

import (
	"encoding/json"
	"fmt"
	"io"

	"autorte/internal/sim"
)

// The exchange format mirrors the AUTOSAR "templates": a self-contained
// JSON document derived from the meta-model, carrying software components,
// ECU resources and system constraints (§2). Port interfaces are stored
// once and referenced by name, as in function catalogues.

type xDoc struct {
	FormatVersion int               `json:"formatVersion"`
	System        string            `json:"system"`
	Interfaces    []xIface          `json:"interfaces"`
	Components    []xSWC            `json:"components"`
	ECUs          []ECU             `json:"ecus"`
	Buses         []Bus             `json:"buses"`
	Connectors    []Connector       `json:"connectors"`
	Constraints   []xConstraint     `json:"constraints,omitempty"`
	Mapping       map[string]string `json:"mapping,omitempty"`
}

type xIface struct {
	Name       string        `json:"name"`
	Kind       string        `json:"kind"`
	Elements   []DataElement `json:"elements,omitempty"`
	Operations []Operation   `json:"operations,omitempty"`
}

type xPort struct {
	Name      string `json:"name"`
	Direction string `json:"direction"`
	Interface string `json:"interface"`
}

type xTrigger struct {
	Kind     string `json:"kind"`
	PeriodUS int64  `json:"periodUs,omitempty"`
	OffsetUS int64  `json:"offsetUs,omitempty"`
	Port     string `json:"port,omitempty"`
	Elem     string `json:"elem,omitempty"`
	Mode     string `json:"mode,omitempty"`
}

type xRunnable struct {
	Name       string    `json:"name"`
	WCETUS     int64     `json:"wcetUs"`
	BCETUS     int64     `json:"bcetUs,omitempty"`
	DeadlineUS int64     `json:"deadlineUs,omitempty"`
	Trigger    xTrigger  `json:"trigger"`
	Reads      []PortRef `json:"reads,omitempty"`
	Writes     []PortRef `json:"writes,omitempty"`
}

type xSWC struct {
	Name      string           `json:"name"`
	Supplier  string           `json:"supplier,omitempty"`
	DAS       string           `json:"das,omitempty"`
	ASIL      string           `json:"asil,omitempty"`
	MemoryKB  int              `json:"memoryKb,omitempty"`
	Ports     []xPort          `json:"ports,omitempty"`
	Runnables []xRunnable      `json:"runnables"`
	Config    map[string]Param `json:"config,omitempty"`
}

type xConstraint struct {
	Name     string     `json:"name"`
	Chain    []PortRef2 `json:"chain"`
	BudgetUS int64      `json:"budgetUs"`
}

// FormatVersion is the current exchange format version.
const FormatVersion = 1

func kindName(k InterfaceKind) string {
	if k == SenderReceiver {
		return "senderReceiver"
	}
	return "clientServer"
}

func parseKind(s string) (InterfaceKind, error) {
	switch s {
	case "senderReceiver":
		return SenderReceiver, nil
	case "clientServer":
		return ClientServer, nil
	}
	return 0, fmt.Errorf("unknown interface kind %q", s)
}

func asilName(a ASIL) string { return a.String() }

func parseASIL(s string) (ASIL, error) {
	switch s {
	case "", "QM":
		return QM, nil
	case "ASIL-A":
		return ASILA, nil
	case "ASIL-B":
		return ASILB, nil
	case "ASIL-C":
		return ASILC, nil
	case "ASIL-D":
		return ASILD, nil
	}
	return 0, fmt.Errorf("unknown ASIL %q", s)
}

func eventKindName(k EventKind) string {
	switch k {
	case TimingEvent:
		return "timing"
	case DataReceivedEvent:
		return "dataReceived"
	case OperationInvokedEvent:
		return "operationInvoked"
	default:
		return "modeSwitch"
	}
}

func parseEventKind(s string) (EventKind, error) {
	switch s {
	case "timing":
		return TimingEvent, nil
	case "dataReceived":
		return DataReceivedEvent, nil
	case "operationInvoked":
		return OperationInvokedEvent, nil
	case "modeSwitch":
		return ModeSwitchEvent, nil
	}
	return 0, fmt.Errorf("unknown event kind %q", s)
}

// Export writes the system as a JSON template document.
func Export(w io.Writer, s *System) error {
	doc := xDoc{
		FormatVersion: FormatVersion,
		System:        s.Name,
		ECUs:          deref(s.ECUs),
		Buses:         deref(s.Buses),
		Connectors:    s.Connectors,
		Mapping:       s.Mapping,
	}
	for _, pi := range s.Interfaces {
		doc.Interfaces = append(doc.Interfaces, xIface{
			Name: pi.Name, Kind: kindName(pi.Kind),
			Elements: pi.Elements, Operations: pi.Operations,
		})
	}
	for _, c := range s.Components {
		xc := xSWC{
			Name: c.Name, Supplier: c.Supplier, DAS: c.DAS,
			ASIL: asilName(c.ASIL), MemoryKB: c.MemoryKB, Config: c.Config.Params,
		}
		for _, p := range c.Ports {
			xc.Ports = append(xc.Ports, xPort{
				Name: p.Name, Direction: p.Direction.String(), Interface: p.Interface.Name,
			})
		}
		for _, r := range c.Runnables {
			xc.Runnables = append(xc.Runnables, xRunnable{
				Name:       r.Name,
				WCETUS:     int64(r.WCETNominal / sim.Microsecond),
				BCETUS:     int64(r.BCET / sim.Microsecond),
				DeadlineUS: int64(r.Deadline / sim.Microsecond),
				Trigger: xTrigger{
					Kind:     eventKindName(r.Trigger.Kind),
					PeriodUS: int64(r.Trigger.Period / sim.Microsecond),
					OffsetUS: int64(r.Trigger.Offset / sim.Microsecond),
					Port:     r.Trigger.Port, Elem: r.Trigger.Elem, Mode: r.Trigger.Mode,
				},
				Reads: r.Reads, Writes: r.Writes,
			})
		}
		doc.Components = append(doc.Components, xc)
	}
	for _, lc := range s.Constraints {
		doc.Constraints = append(doc.Constraints, xConstraint{
			Name: lc.Name, Chain: lc.Chain, BudgetUS: int64(lc.Budget / sim.Microsecond),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func deref[T any](in []*T) []T {
	out := make([]T, len(in))
	for i, p := range in {
		out[i] = *p
	}
	return out
}

// Import parses a JSON template document and reconstructs the system,
// resolving interface references and validating the result.
func Import(r io.Reader) (*System, error) {
	var doc xDoc
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("exchange: %w", err)
	}
	if tok, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("data after the document: %v", tok)
		}
		return nil, fmt.Errorf("exchange: %w", err)
	}
	if doc.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("exchange: unsupported format version %d", doc.FormatVersion)
	}
	s := &System{Name: doc.System, Connectors: doc.Connectors, Mapping: doc.Mapping}
	ifaces := map[string]*PortInterface{}
	for _, xi := range doc.Interfaces {
		kind, err := parseKind(xi.Kind)
		if err != nil {
			return nil, fmt.Errorf("exchange: interface %s: %w", xi.Name, err)
		}
		pi := &PortInterface{Name: xi.Name, Kind: kind, Elements: xi.Elements, Operations: xi.Operations}
		if ifaces[xi.Name] != nil {
			return nil, fmt.Errorf("exchange: duplicate interface %s", xi.Name)
		}
		ifaces[xi.Name] = pi
		s.Interfaces = append(s.Interfaces, pi)
	}
	for i := range doc.ECUs {
		e := doc.ECUs[i]
		s.ECUs = append(s.ECUs, &e)
	}
	for i := range doc.Buses {
		b := doc.Buses[i]
		s.Buses = append(s.Buses, &b)
	}
	for _, xc := range doc.Components {
		asil, err := parseASIL(xc.ASIL)
		if err != nil {
			return nil, fmt.Errorf("exchange: component %s: %w", xc.Name, err)
		}
		c := &SWC{
			Name: xc.Name, Supplier: xc.Supplier, DAS: xc.DAS,
			ASIL: asil, MemoryKB: xc.MemoryKB, Config: ConfigSet{Params: xc.Config},
		}
		for _, xp := range xc.Ports {
			pi, ok := ifaces[xp.Interface]
			if !ok {
				return nil, fmt.Errorf("exchange: component %s port %s: unknown interface %q", xc.Name, xp.Name, xp.Interface)
			}
			var dir PortDirection
			switch xp.Direction {
			case "provided":
				dir = Provided
			case "required":
				dir = Required
			default:
				return nil, fmt.Errorf("exchange: component %s port %s: unknown direction %q", xc.Name, xp.Name, xp.Direction)
			}
			c.Ports = append(c.Ports, Port{Name: xp.Name, Direction: dir, Interface: pi})
		}
		for _, xr := range xc.Runnables {
			ek, err := parseEventKind(xr.Trigger.Kind)
			if err != nil {
				return nil, fmt.Errorf("exchange: component %s runnable %s: %w", xc.Name, xr.Name, err)
			}
			c.Runnables = append(c.Runnables, Runnable{
				Name:        xr.Name,
				WCETNominal: sim.Duration(xr.WCETUS) * sim.Microsecond,
				BCET:        sim.Duration(xr.BCETUS) * sim.Microsecond,
				Deadline:    sim.Duration(xr.DeadlineUS) * sim.Microsecond,
				Trigger: Trigger{
					Kind:   ek,
					Period: sim.Duration(xr.Trigger.PeriodUS) * sim.Microsecond,
					Offset: sim.Duration(xr.Trigger.OffsetUS) * sim.Microsecond,
					Port:   xr.Trigger.Port, Elem: xr.Trigger.Elem, Mode: xr.Trigger.Mode,
				},
				Reads: xr.Reads, Writes: xr.Writes,
			})
		}
		s.Components = append(s.Components, c)
	}
	for _, xlc := range doc.Constraints {
		s.Constraints = append(s.Constraints, LatencyConstraint{
			Name: xlc.Name, Chain: xlc.Chain,
			Budget: sim.Duration(xlc.BudgetUS) * sim.Microsecond,
		})
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("exchange: imported system invalid: %w", err)
	}
	return s, nil
}
