// Package vfb implements the Virtual Functional Bus view of a system:
// design-level connectivity checks and the resolution of logical
// connectors onto concrete communication — intra-ECU buffers or inter-ECU
// bus signals — once a deployment mapping exists.
//
// The VFB is the paper's abstraction for location independence (§2): the
// application wiring is fixed here, and only Resolve decides which
// connectors become bus traffic. Moving an SWC between ECUs changes routes,
// never the component code.
package vfb

import (
	"fmt"
	"sort"

	"autorte/internal/model"
)

// Route is the concrete realization of one data element of a connector.
type Route struct {
	Conn model.Connector
	Elem string
	// Local is true when provider and consumer share an ECU.
	Local bool
	// Bus carries the route when remote (the first segment when routed
	// through a gateway).
	Bus string
	// Via names the gateway ECU when source and destination share no bus:
	// the signal travels Bus to Via, then Bus2 onward (the Gateway box of
	// the paper's Figure 1). Empty for single-segment routes.
	Via string
	// Bus2 carries the second segment of a gatewayed route.
	Bus2 string
	// SignalName is the globally unique name for the routed element.
	SignalName string
	// Bits is the packed width of the element.
	Bits int
	// Period is the producing runnable's period in nanoseconds
	// (0 if event-driven).
	Period int64
}

// Crosses reports whether the route loads the named bus: a remote route
// loads its bus, and a gatewayed one both of its segments' buses.
func (r *Route) Crosses(bus string) bool {
	return !r.Local && (r.Bus == bus || r.Via != "" && r.Bus2 == bus)
}

// CheckConnectivity verifies VFB completeness: every required port must
// have exactly one logical provider (AUTOSAR allows unconnected R-ports
// only with explicit defaults; we treat them as design errors). A replica
// group counts as ONE logical provider: when deploy.Replicate fans a
// connector out so the primary and its standbys all feed the same
// consumer port, only the active instance publishes at any instant, so
// the port still sees a single producer stream.
func CheckConnectivity(s *model.System) error {
	// Count-only map on the hot path: connectivity runs inside every
	// verification pass, and a per-port provider slice here was a
	// measurable fraction of the Verify allocs/op budget. The provider
	// list is materialized only for the rare multi-provider port.
	incoming := map[[2]string]int{}
	for _, c := range s.Connectors {
		incoming[[2]string{c.ToSWC, c.ToPort}]++
	}
	for _, comp := range s.Components {
		for _, p := range comp.Ports {
			if p.Direction != model.Required {
				continue
			}
			n := incoming[[2]string{comp.Name, p.Name}]
			if n == 0 {
				return fmt.Errorf("vfb: required port %s.%s is unconnected", comp.Name, p.Name)
			}
			if n > 1 {
				var provs []string
				for _, c := range s.Connectors {
					if c.ToSWC == comp.Name && c.ToPort == p.Name {
						provs = append(provs, c.FromSWC)
					}
				}
				if !oneLogicalProvider(s, provs) {
					return fmt.Errorf("vfb: required port %s.%s has %d providers", comp.Name, p.Name, n)
				}
			}
		}
	}
	return nil
}

// oneLogicalProvider reports whether a set of providing components is one
// replica group: distinct instances that all collapse (via ReplicaOf) to
// the same primary. The same instance wired in twice is still an error.
func oneLogicalProvider(s *model.System, provs []string) bool {
	primary := ""
	seen := map[string]bool{}
	for _, name := range provs {
		if seen[name] {
			return false
		}
		seen[name] = true
		group := name
		if c := s.Component(name); c != nil && c.ReplicaOf != "" {
			group = c.ReplicaOf
		}
		if primary == "" {
			primary = group
		} else if group != primary {
			return false
		}
	}
	return true
}

// pathResult is one memoized ECU-pair path.
type pathResult struct {
	bus, via, bus2 string
	err            error
}

// Paths memoizes Path per ordered ECU pair: vehicle topologies route many
// connectors over few ECU pairs, and a system's topology — its ECUs and
// their bus attachments — is fixed, so entries never expire. Not safe for
// concurrent use.
type Paths struct {
	s *model.System
	m map[[2]string]pathResult
}

// NewPaths returns an empty path memo over s.
func NewPaths(s *model.System) *Paths {
	return &Paths{s: s, m: map[[2]string]pathResult{}}
}

// Path is the memoized Path between two ECUs.
func (p *Paths) Path(srcECU, dstECU string) (bus, via, bus2 string, err error) {
	k := [2]string{srcECU, dstECU}
	r, ok := p.m[k]
	if !ok {
		r.bus, r.via, r.bus2, r.err = Path(p.s, srcECU, dstECU)
		p.m[k] = r
	}
	return r.bus, r.via, r.bus2, r.err
}

// Resolve maps every connector element onto a route under the system's
// current mapping. Every component must be mapped, and remote connectors
// need a path between their ECUs. Routes are materialized connector by
// connector in declaration order, so the first unroutable connector is
// the one reported, and come back sorted by SignalName.
func Resolve(s *model.System) ([]Route, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	paths := NewPaths(s)
	tmpls := Templates(s)
	routes := make([]Route, len(tmpls))
	for i, t := range tmpls {
		r, err := t.Materialize(s.Mapping, paths)
		if err != nil {
			return nil, err
		}
		routes[i] = r
	}
	sort.Slice(routes, func(i, j int) bool { return routes[i].SignalName < routes[j].SignalName })
	return routes, nil
}

// Template is the mapping-independent part of a Route: everything Resolve
// derives from the VFB wiring alone (signal identity, width, producer
// rate). Incremental re-verification precomputes templates once and only
// re-evaluates the mapping-dependent fields (Local, Bus, Via, Bus2) when
// the deployment changes.
type Template struct {
	Conn model.Connector
	// Connector is Conn's index in the system's connector list.
	Connector  int
	Elem       string
	SignalName string
	Bits       int
	Period     int64
}

// Templates precomputes one Template per connector element of a validated
// system, connector by connector in declaration order: one per data
// element the requirer consumes, or a single "__call__" element for a
// client-server connector (its request and response modelled as one
// logical element).
func Templates(s *model.System) []Template {
	var tmpls []Template
	for ci, c := range s.Connectors {
		prov := s.Component(c.FromSWC).Port(c.FromPort)
		req := s.Component(c.ToSWC).Port(c.ToPort)
		if prov.Interface.Kind != model.SenderReceiver {
			tmpls = append(tmpls, Template{
				Conn: c, Connector: ci, Elem: "__call__",
				SignalName: signalName(c, "__call__"),
				Bits:       32,
			})
			continue
		}
		for _, el := range req.Interface.Elements {
			tmpls = append(tmpls, Template{
				Conn: c, Connector: ci, Elem: el.Name,
				SignalName: signalName(c, el.Name),
				Bits:       el.Type.Bits,
				Period:     producerPeriod(s, s.Component(c.FromSWC), c.FromPort, el.Name),
			})
		}
	}
	return tmpls
}

// Materialize turns a Template into a Route under the given mapping,
// resolving a remote ECU pair through paths.
func (t Template) Materialize(mapping map[string]string, paths *Paths) (Route, error) {
	src, ok := mapping[t.Conn.FromSWC]
	if !ok {
		return Route{}, fmt.Errorf("vfb: component %s is not mapped", t.Conn.FromSWC)
	}
	dst, ok := mapping[t.Conn.ToSWC]
	if !ok {
		return Route{}, fmt.Errorf("vfb: component %s is not mapped", t.Conn.ToSWC)
	}
	r := Route{
		Conn: t.Conn, Elem: t.Elem,
		Local:      src == dst,
		SignalName: t.SignalName,
		Bits:       t.Bits,
		Period:     t.Period,
	}
	if !r.Local {
		bus, via, bus2, err := paths.Path(src, dst)
		if err != nil {
			return Route{}, err
		}
		r.Bus, r.Via, r.Bus2 = bus, via, bus2
	}
	return r, nil
}

func signalName(c model.Connector, elem string) string {
	return c.FromSWC + "." + c.FromPort + "." + elem + "->" + c.ToSWC + "." + c.ToPort
}

// producerPeriod returns the effective period (ns) of the runnable
// writing the element: event-driven producers inherit their trigger
// chain's rate (model.System.EffectivePeriod), so even signals written
// from data-received runnables get an analyzable rate. Returns 0 only
// when no rate is derivable.
func producerPeriod(s *model.System, swc *model.SWC, port, elem string) int64 {
	for i := range swc.Runnables {
		r := &swc.Runnables[i]
		for _, w := range r.Writes {
			if w.Port == port && (w.Elem == elem || w.Elem == "") {
				return int64(s.EffectivePeriod(swc, r))
			}
		}
	}
	return 0
}

// Path resolves the communication path between two ECUs without routing a
// full system: a directly shared bus when one exists, else a two-segment
// path through a gateway ECU attached to a bus of each side. Longer paths
// are rejected — in practice vehicle topologies gateway between adjacent
// domain buses only. Deployment search uses this to precompute the
// ECU-pair reachability that Resolve would discover connector by
// connector.
func Path(s *model.System, srcECU, dstECU string) (bus, via, bus2 string, err error) {
	if b, err := sharedBus(s, srcECU, dstECU); err == nil {
		return b, "", "", nil
	}
	// Candidate gateways in deterministic order.
	for _, g := range s.ECUs {
		if g.Name == srcECU || g.Name == dstECU {
			continue
		}
		b1, err1 := sharedBus(s, srcECU, g.Name)
		b2, err2 := sharedBus(s, g.Name, dstECU)
		if err1 == nil && err2 == nil && b1 != b2 {
			return b1, g.Name, b2, nil
		}
	}
	return "", "", "", fmt.Errorf("vfb: no path (direct or one-gateway) between ECUs %s and %s", srcECU, dstECU)
}

// sharedBus picks the bus connecting two ECUs, erroring when none exists
// and preferring deterministic (alphabetical) choice when several do.
func sharedBus(s *model.System, a, b string) (string, error) {
	ea, eb := s.ECUByName(a), s.ECUByName(b)
	onA := map[string]bool{}
	for _, bus := range ea.Buses {
		onA[bus] = true
	}
	var shared []string
	for _, bus := range eb.Buses {
		if onA[bus] {
			shared = append(shared, bus)
		}
	}
	if len(shared) == 0 {
		return "", fmt.Errorf("vfb: ECUs %s and %s share no bus", a, b)
	}
	sort.Strings(shared)
	return shared[0], nil
}
