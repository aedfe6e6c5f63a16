package deploy

// The reference packers: Greedy and Place as they packed before they ran
// over a Bound — every candidate ECU checked by re-scanning the partial
// mapping (AnalyzedLoad, memory and ASIL sums, replica-group pairs), the
// result checked by the reference scorer. FuzzFirstFit holds the shared
// first-fit routine to them.

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"autorte/internal/model"
)

// refGreedy is Greedy packing through refFits.
func refGreedy(sys *model.System, cons Constraints) (*model.System, error) {
	cons.fill()
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	out := sys.Clone()
	out.Mapping = map[string]string{}
	if err := refPack(out, out.Components, cons); err != nil {
		return nil, err
	}
	return out, nil
}

// refPlace is Place packing through refFits.
func refPlace(sys *model.System, cons Constraints) (*model.System, error) {
	cons.fill()
	if err := cons.Validate(); err != nil {
		return nil, err
	}
	out := sys.Clone()
	if out.Mapping == nil {
		out.Mapping = map[string]string{}
	}
	var pending []*model.SWC
	for _, c := range out.Components {
		if out.Mapping[c.Name] == "" {
			pending = append(pending, c)
		}
	}
	if err := refPack(out, pending, cons); err != nil {
		return nil, err
	}
	return out, nil
}

// refPack maps comps first-fit decreasing onto out's ECUs in name order,
// then scores the result.
func refPack(out *model.System, comps []*model.SWC, cons Constraints) error {
	comps = slices.Clone(comps)
	sort.SliceStable(comps, func(i, j int) bool {
		ui, uj := comps[i].Utilization(), comps[j].Utilization()
		if ui != uj {
			return ui > uj
		}
		return comps[i].Name < comps[j].Name
	})
	ecus := slices.Clone(out.ECUs)
	sort.SliceStable(ecus, func(i, j int) bool { return ecus[i].Name < ecus[j].Name })
	for _, c := range comps {
		placed := false
		for _, e := range ecus {
			out.Mapping[c.Name] = e.Name
			if refFits(out, c, e, cons) {
				placed = true
				break
			}
			delete(out.Mapping, c.Name)
		}
		if !placed {
			return fmt.Errorf("cannot place %s", c.Name)
		}
	}
	if m := refEvaluate(&Evaluator{Cons: cons}, out); !m.Feasible {
		return fmt.Errorf("result infeasible: %v", m.Violations)
	}
	return nil
}

// refFits checks the per-ECU constraints for c on e under the current
// (partial) mapping of out.
func refFits(out *model.System, c *model.SWC, e *model.ECU, cons Constraints) bool {
	if out.AnalyzedLoad(e.Name) > cons.MaxUtilization {
		return false
	}
	if cons.RespectASIL && c.ASIL > e.MaxASIL {
		return false
	}
	if cons.RespectMemory && e.MemoryKB > 0 {
		mem := 0
		for _, o := range out.Components {
			if out.Mapping[o.Name] == e.Name {
				mem += o.MemoryKB
			}
		}
		if mem > e.MemoryKB {
			return false
		}
	}
	// Replica anti-affinity: never pack two instances of one group onto
	// the same ECU.
	if c.ReplicaOf != "" || c.Redundancy.Replicated() || refHasStandbyOf(out, c.Name) {
		for _, o := range out.Components {
			if o.Name != c.Name && out.Mapping[o.Name] == e.Name && refSameReplicaGroup(c, o) {
				return false
			}
		}
	}
	if cons.MaxASILSpread != 0 {
		hosts := false
		var worst, best model.ASIL
		for _, o := range out.Components {
			if out.Mapping[o.Name] != e.Name {
				continue
			}
			if !hosts || o.ASIL < best {
				best = o.ASIL
			}
			if !hosts || o.ASIL > worst {
				worst = o.ASIL
			}
			hosts = true
		}
		if asilSpreadViolation(e.Name, worst, best, cons.MaxASILSpread) != "" {
			return false
		}
	}
	return true
}

// refHasStandbyOf reports whether any materialized standby names c as
// its primary.
func refHasStandbyOf(out *model.System, name string) bool {
	for _, o := range out.Components {
		if o.ReplicaOf == name {
			return true
		}
	}
	return false
}

// refSameReplicaGroup reports whether two distinct components are
// instances of one replica group.
func refSameReplicaGroup(a, b *model.SWC) bool {
	return a.ReplicaOf == b.Name || b.ReplicaOf == a.Name ||
		(a.ReplicaOf != "" && a.ReplicaOf == b.ReplicaOf)
}

// FuzzFirstFit holds Greedy and Place to refGreedy and refPlace under
// random replicated systems and fault models (FuzzFaultSweep's layout)
// and random packing constraints: both return the same mapping, or both
// fail. Place keeps the decoded mapping minus the case's unmapped
// components. The input is FuzzFaultSweep's layout followed by, one byte
// each: constraint flags (RespectMemory, RespectASIL,
// RequireSchedulable, MaxASILSpread = [0 1 2 -1][flags>>3 % 4]), the
// utilization cap choice, then a count of further components to unmap
// and their indices.
func FuzzFirstFit(f *testing.F) {
	// roundRobin maps n components over the vehicle's twelve ECUs.
	roundRobin := func(n int) []byte {
		m := make([]byte, n)
		for i := range m {
			m[i] = byte(i % 12)
		}
		return m
	}
	// The redundancy fixture, nothing extra.
	f.Add([]byte{0, 0, 0})
	// The fixture with its standby left to Place under RespectASIL.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 1, 2, 0, 0, 0, 2, 0})
	// The fixture under RejectAllLoad.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5})
	// Vehicle with a passive and an active standby, both left to Place
	// with six more components, under RespectMemory, RespectASIL and RTA.
	f.Add(slices.Concat([]byte{1, 0, 2, 5, 1, 0, 17, 1, 1, 0, 0, 0}, roundRobin(41),
		[]byte{2, 6, 19, 0, 0, 0, 7, 0, 6, 1, 3, 8, 22, 30, 35}))
	// Vehicle under spread 2 and a 0.5 cap, ten components unmapped.
	f.Add(slices.Concat([]byte{1, 0, 0, 0, 0, 0}, roundRobin(39),
		[]byte{0, 0, 0, 0, 16, 2, 10, 0, 2, 4, 6, 9, 12, 15, 20, 25, 38}))
	// Vehicle with two active standbys under the strict spread.
	f.Add(slices.Concat([]byte{1, 0, 1, 9, 2, 1, 0, 0, 0}, roundRobin(41),
		[]byte{0, 0, 0, 0, 24, 0, 3, 9, 10, 11}))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		fc, err := decodeFuzzCase(&in)
		if err != nil {
			t.Skip(err)
		}
		flags := in.next(256)
		fc.cons.RespectMemory = flags&1 != 0
		fc.cons.RespectASIL = flags&2 != 0
		fc.cons.RequireSchedulable = flags&4 != 0
		fc.cons.MaxASILSpread = []int{0, 1, 2, -1}[flags>>3%4]
		if c := in.next(6); c > 0 {
			fc.cons.MaxUtilization = []float64{0.15, 0.5, 0.69, 1, RejectAllLoad}[c-1]
		}
		for n := in.next(16); n > 0; n-- {
			fc.unmapped = append(fc.unmapped, fc.sys.Components[in.next(len(fc.sys.Components))].Name)
		}
		if err := fc.sys.Validate(); err != nil {
			t.Skip(err) // not a valid topology: Bind refuses it
		}

		same := func(name string, got, want *model.System, gotErr, wantErr error) {
			t.Helper()
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
			}
			if gotErr == nil && !reflect.DeepEqual(got.Mapping, want.Mapping) {
				t.Fatalf("%s: mapping diverges from the reference\ngot:  %v\nwant: %v", name, got.Mapping, want.Mapping)
			}
		}
		got, gotErr := Greedy(fc.sys, fc.cons)
		want, wantErr := refGreedy(fc.sys, fc.cons)
		same("Greedy", got, want, gotErr, wantErr)

		partial := fc.sys.Clone()
		for _, name := range fc.unmapped {
			delete(partial.Mapping, name)
		}
		got, gotErr = Place(partial, fc.cons)
		want, wantErr = refPlace(partial, fc.cons)
		same("Place", got, want, gotErr, wantErr)
	})
}
