package contract

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The contract exchange format: a JSON catalogue of rich interface
// specifications, shipped next to the system templates so OEMs and
// suppliers can exchange contracts without disclosing internals (§2's
// function catalogues extended with §3's richness).

type xCatalogue struct {
	FormatVersion int         `json:"formatVersion"`
	Contracts     []xContract `json:"contracts"`
}

type xContract struct {
	Component  string               `json:"component"`
	Assumes    []xCondition         `json:"assumes,omitempty"`
	Guarantees []xCondition         `json:"guarantees,omitempty"`
	Vertical   []VerticalAssumption `json:"vertical,omitempty"`
}

type xCondition struct {
	Kind string  `json:"kind"`
	Port string  `json:"port"`
	Elem string  `json:"elem,omitempty"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
}

// CatalogueVersion is the current exchange format version.
const CatalogueVersion = 1

func kindName(k ConditionKind) string {
	switch k {
	case ValueRange:
		return "valueRange"
	case UpdateRate:
		return "updateRate"
	default:
		return "latency"
	}
}

func parseKindName(s string) (ConditionKind, error) {
	switch s {
	case "valueRange":
		return ValueRange, nil
	case "updateRate":
		return UpdateRate, nil
	case "latency":
		return Latency, nil
	}
	return 0, fmt.Errorf("contract: unknown condition kind %q", s)
}

// Export writes a contract catalogue as JSON, sorted deterministically by
// the caller's map iteration being replaced with sorted component names.
func Export(w io.Writer, contracts map[string]*Contract) error {
	names := make([]string, 0, len(contracts))
	for n := range contracts {
		names = append(names, n)
	}
	sort.Strings(names)
	doc := xCatalogue{FormatVersion: CatalogueVersion}
	for _, n := range names {
		c := contracts[n]
		if err := c.Validate(); err != nil {
			return err
		}
		xc := xContract{Component: c.Component, Vertical: c.Vertical}
		for _, a := range c.Assumes {
			xc.Assumes = append(xc.Assumes, xCondition{Kind: kindName(a.Kind), Port: a.Port, Elem: a.Elem, Lo: a.Lo, Hi: a.Hi})
		}
		for _, g := range c.Guarantees {
			xc.Guarantees = append(xc.Guarantees, xCondition{Kind: kindName(g.Kind), Port: g.Port, Elem: g.Elem, Lo: g.Lo, Hi: g.Hi})
		}
		doc.Contracts = append(doc.Contracts, xc)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Import parses a contract catalogue and validates every contract.
func Import(r io.Reader) (map[string]*Contract, error) {
	var doc xCatalogue
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("contract: %w", err)
	}
	if tok, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("data after the catalogue: %v", tok)
		}
		return nil, fmt.Errorf("contract: %w", err)
	}
	if doc.FormatVersion != CatalogueVersion {
		return nil, fmt.Errorf("contract: unsupported catalogue version %d", doc.FormatVersion)
	}
	out := map[string]*Contract{}
	for _, xc := range doc.Contracts {
		if _, dup := out[xc.Component]; dup {
			return nil, fmt.Errorf("contract: duplicate contract for %s", xc.Component)
		}
		c := &Contract{Component: xc.Component, Vertical: xc.Vertical}
		for _, a := range xc.Assumes {
			kind, err := parseKindName(a.Kind)
			if err != nil {
				return nil, err
			}
			c.Assumes = append(c.Assumes, Condition{Kind: kind, Port: a.Port, Elem: a.Elem, Lo: a.Lo, Hi: a.Hi})
		}
		for _, g := range xc.Guarantees {
			kind, err := parseKindName(g.Kind)
			if err != nil {
				return nil, err
			}
			c.Guarantees = append(c.Guarantees, Condition{Kind: kind, Port: g.Port, Elem: g.Elem, Lo: g.Lo, Hi: g.Hi})
		}
		if err := c.Validate(); err != nil {
			return nil, err
		}
		out[c.Component] = c
	}
	return out, nil
}
