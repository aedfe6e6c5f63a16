package deploy

import (
	"fmt"

	"autorte/internal/model"
)

// Replicate materializes the redundancy specs of a system: for every
// component asking for Redundancy.Replicas > 1, standby instances named
// "Name#1" .. "Name#k" are inserted directly after the primary (keeping
// each replica group contiguous in declaration order) with ReplicaOf set.
// Connectors are fanned out over the replica groups of both endpoints so
// every standby receives the primary's inputs all along (warm state) and
// a promoted standby drives the primary's consumers; the vfb connectivity
// check accepts the fan-in because a replica group is one logical
// provider. Standby instances come back unmapped — run Place (or Greedy)
// afterwards to site them; the anti-affinity constraint keeps them off
// their primary's ECU. Latency constraints keep naming primaries only.
// The input system is not modified.
func Replicate(sys *model.System) (*model.System, error) { return replicate(sys, nil) }

// replicate is Replicate with the redundancy spec of every component
// named in spec replaced first, on the one clone it materializes into —
// how PlaceReplicas scores a configuration without a throwaway copy.
func replicate(sys *model.System, spec map[string]model.Redundancy) (*model.System, error) {
	out := sys.Clone()
	instances := map[string][]string{}
	var comps []*model.SWC
	for _, c := range out.Components {
		if r, ok := spec[c.Name]; ok {
			c.Redundancy = r
		}
		if c.Redundancy.Replicated() && c.IsStandby() {
			return nil, fmt.Errorf("deploy: standby %s cannot request replicas", c.Name)
		}
		comps = append(comps, c)
		instances[c.Name] = []string{c.Name}
		if !c.Redundancy.Replicated() {
			continue
		}
		for k := 1; k < c.Redundancy.Replicas; k++ {
			name := fmt.Sprintf("%s#%d", c.Name, k)
			if sys.Component(name) != nil {
				return nil, fmt.Errorf("deploy: replica name %s collides with an existing component", name)
			}
			sb := c.Clone()
			sb.Name = name
			sb.ReplicaOf = c.Name
			sb.Redundancy.Replicas = 0 // the spec is spent; Mode still drives runtime switchover
			comps = append(comps, sb)
			instances[c.Name] = append(instances[c.Name], name)
		}
		// The spec is materialized: the primary itself no longer requests
		// replicas, so Replicate is idempotent on its own output.
		c.Redundancy.Replicas = 0
	}
	out.Components = comps
	var conns []model.Connector
	for _, c := range out.Connectors {
		froms, tos := instances[c.FromSWC], instances[c.ToSWC]
		if len(froms) == 0 {
			froms = []string{c.FromSWC} // unknown endpoint: keep as-is, Validate reports it
		}
		if len(tos) == 0 {
			tos = []string{c.ToSWC}
		}
		for _, from := range froms {
			for _, to := range tos {
				cc := c
				cc.FromSWC, cc.ToSWC = from, to
				conns = append(conns, cc)
			}
		}
	}
	out.Connectors = conns
	return out, nil
}
