package contract

import (
	"sort"

	"autorte/internal/model"
)

// Report is the outcome of system-level contract checking.
type Report struct {
	Checked    int      // connections with contracts on both sides
	Skipped    int      // connections lacking a contract on either side
	Violations []string // human-readable incompatibilities
	// Confidence is the weakest confidence across all participating
	// contracts' vertical assumptions.
	Confidence float64
}

// OK reports whether no violation was found.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// CheckSystem verifies every VFB connection of the system against the
// components' contracts: the provider's guarantees must imply the
// consumer's assumptions. Components without contracts are skipped (and
// counted), mirroring incremental adoption in a supplier landscape.
func CheckSystem(sys *model.System, contracts map[string]*Contract) (*Report, error) {
	rep := &Report{Confidence: 1}
	// Sorted names: with several invalid contracts the returned error must
	// not depend on map iteration order.
	names := make([]string, 0, len(contracts))
	for name := range contracts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := contracts[name]
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if conf := c.Confidence(); conf < rep.Confidence {
			rep.Confidence = conf
		}
	}
	for _, conn := range sys.Connectors {
		prov, okP := contracts[conn.FromSWC]
		cons, okC := contracts[conn.ToSWC]
		if !okP || !okC {
			rep.Skipped++
			continue
		}
		rep.Checked++
		if err := Compatible(prov, conn.FromPort, cons, conn.ToPort); err != nil {
			rep.Violations = append(rep.Violations, err.Error())
		}
	}
	return rep, nil
}
