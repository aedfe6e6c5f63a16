// Package contract implements the rich component interface specifications
// of §3: assume/guarantee contracts over port data (value ranges, update
// rates, latencies), vertical assumptions carrying resource budgets with
// confidence levels, compatibility checking between connected components,
// dominance (refinement) between contracts, and a system-level check of
// every connection that reports the weakest confidence. End-to-end chain
// latency is core.Verify's, from the platform's timing analyses.
package contract

import (
	"fmt"

	"autorte/internal/sim"
)

// ConditionKind classifies what a clause constrains.
type ConditionKind uint8

const (
	// ValueRange bounds the physical value of a port element.
	ValueRange ConditionKind = iota
	// UpdateRate bounds the inter-update interval of a port element
	// (Lo/Hi are durations in nanoseconds).
	UpdateRate
	// Latency bounds the response delay from an input element to an
	// output element (Hi is the budget in nanoseconds).
	Latency
)

func (k ConditionKind) String() string {
	switch k {
	case ValueRange:
		return "value-range"
	case UpdateRate:
		return "update-rate"
	default:
		return "latency"
	}
}

// Condition is one interval clause over a port element.
type Condition struct {
	Kind ConditionKind
	// Port and Elem name the constrained data.
	Port, Elem string
	// Lo and Hi bound the interval. For Latency, Lo is usually 0 and Hi
	// the budget; for UpdateRate they bound the inter-arrival time.
	Lo, Hi float64
}

// Validate checks interval sanity.
func (c Condition) Validate() error {
	if c.Port == "" {
		return fmt.Errorf("contract: condition without port")
	}
	if c.Hi < c.Lo {
		return fmt.Errorf("contract: condition on %s.%s: hi %g < lo %g", c.Port, c.Elem, c.Hi, c.Lo)
	}
	return nil
}

// implies reports whether satisfying c guarantees satisfying other:
// c's interval is contained in other's.
func (c Condition) implies(other Condition) bool {
	return c.Kind == other.Kind && c.Port == other.Port && c.Elem == other.Elem &&
		c.Lo >= other.Lo && c.Hi <= other.Hi
}

// VerticalAssumption is a resource requirement on the platform below the
// component — "capturing resource requirements at system-level" (§3).
type VerticalAssumption struct {
	// Resource names what is needed: "cpu", "memKB", "bus".
	Resource string
	// Budget is the required amount (e.g. WCET in ns, utilization·1000,
	// kilobytes).
	Budget float64
	// Confidence in [0,1] reflects design experience in the estimate
	// ("assumptions can be annotated with confidence levels").
	Confidence float64
}

// Validate checks the assumption.
func (v VerticalAssumption) Validate() error {
	if v.Resource == "" {
		return fmt.Errorf("contract: vertical assumption without resource")
	}
	if v.Confidence < 0 || v.Confidence > 1 {
		return fmt.Errorf("contract: confidence %g outside [0,1]", v.Confidence)
	}
	if v.Budget < 0 {
		return fmt.Errorf("contract: negative budget")
	}
	return nil
}

// Contract is a rich interface specification of one component: what it
// assumes of its environment and what it guarantees in return, plus the
// vertical resource assumptions its guarantees rest on.
type Contract struct {
	Component  string
	Assumes    []Condition
	Guarantees []Condition
	Vertical   []VerticalAssumption
}

// Validate checks every clause.
func (c *Contract) Validate() error {
	if c.Component == "" {
		return fmt.Errorf("contract: contract without component")
	}
	for _, cond := range append(append([]Condition(nil), c.Assumes...), c.Guarantees...) {
		if err := cond.Validate(); err != nil {
			return fmt.Errorf("contract %s: %w", c.Component, err)
		}
	}
	for _, v := range c.Vertical {
		if err := v.Validate(); err != nil {
			return fmt.Errorf("contract %s: %w", c.Component, err)
		}
	}
	return nil
}

// Confidence returns the weakest confidence among vertical assumptions
// (1 when there are none): the degree to which system-level analysis can
// be trusted.
func (c *Contract) Confidence() float64 {
	conf := 1.0
	for _, v := range c.Vertical {
		if v.Confidence < conf {
			conf = v.Confidence
		}
	}
	return conf
}

// Compatible checks one connection: every assumption the consumer makes
// about (consumerPort, elem) must be implied by some provider guarantee on
// (providerPort, elem). Port names are translated through the connector.
func Compatible(provider *Contract, providerPort string, consumer *Contract, consumerPort string) error {
	for _, a := range consumer.Assumes {
		if a.Port != consumerPort {
			continue
		}
		met := false
		for _, g := range provider.Guarantees {
			if g.Port != providerPort || g.Elem != a.Elem || g.Kind != a.Kind {
				continue
			}
			// Ports differ across the connector; only the interval matters.
			if g.Lo >= a.Lo && g.Hi <= a.Hi {
				met = true
				break
			}
		}
		if !met {
			return fmt.Errorf("contract: %s assumes %v on %s.%s in [%g,%g]; %s guarantees nothing that implies it",
				consumer.Component, a.Kind, consumerPort, a.Elem, a.Lo, a.Hi, provider.Component)
		}
	}
	return nil
}

// Dominates reports whether refined can replace abstract anywhere:
// weaker (or equal) assumptions and stronger (or equal) guarantees.
// This is the dominance analysis between contracts §3 describes.
func Dominates(refined, abstract *Contract) error {
	// Every assumption refined makes must already be granted by abstract's
	// assumptions (refined must not assume more).
	for _, ra := range refined.Assumes {
		granted := false
		for _, aa := range abstract.Assumes {
			if aa.implies(ra) {
				granted = true
				break
			}
		}
		if !granted {
			return fmt.Errorf("contract: %s assumes more than %s: %v %s.%s [%g,%g]",
				refined.Component, abstract.Component, ra.Kind, ra.Port, ra.Elem, ra.Lo, ra.Hi)
		}
	}
	// Every guarantee abstract gives must be implied by a refined
	// guarantee (refined must not promise less).
	for _, ag := range abstract.Guarantees {
		kept := false
		for _, rg := range refined.Guarantees {
			if rg.implies(ag) {
				kept = true
				break
			}
		}
		if !kept {
			return fmt.Errorf("contract: %s promises less than %s: missing %v %s.%s [%g,%g]",
				refined.Component, abstract.Component, ag.Kind, ag.Port, ag.Elem, ag.Lo, ag.Hi)
		}
	}
	return nil
}

// LatencyBudget extracts a component's latency guarantee between two
// ports, or 0 when none is declared.
func (c *Contract) LatencyBudget(fromPort, toPort string) sim.Duration {
	for _, g := range c.Guarantees {
		if g.Kind == Latency && g.Port == fromPort && g.Elem == toPort {
			return sim.Duration(g.Hi)
		}
	}
	return 0
}
