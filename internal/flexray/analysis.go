package flexray

import (
	"fmt"
	"sort"

	"autorte/internal/sim"
)

// DynamicWCRT returns a conservative worst-case latency bound for a
// dynamic frame under the bus's frame set: the smallest number of cycles n
// in which the higher-priority minislot demand plus this frame fits the
// dynamic segment capacity (with one wasted minislot per higher-priority
// frame per cycle for skipped IDs), plus one cycle of queuing phase.
// Returns 0 and an error when no bound exists (dynamic overload).
func DynamicWCRT(cfg Config, f *Frame, all []*Frame) (sim.Duration, error) {
	if f.Kind != Dynamic {
		return 0, fmt.Errorf("flexray: %s is not a dynamic frame", f.Name)
	}
	var hp []*Frame
	for _, o := range all {
		if o.Kind == Dynamic && o != f && o.FrameID < f.FrameID {
			if o.Period <= 0 {
				return 0, fmt.Errorf("flexray: higher-priority frame %s has no period bound", o.Name)
			}
			hp = append(hp, o)
		}
	}
	cap := int64(cfg.Minislots)
	cyc := cfg.CycleLength()
	const maxCycles = 4096
	for n := int64(1); n <= maxCycles; n++ {
		demand := int64(f.Length)
		for _, k := range hp {
			arrivals := (int64(n)*int64(cyc) + int64(k.Period) - 1) / int64(k.Period)
			demand += arrivals * int64(k.Length)
		}
		waste := n * int64(len(hp)) // skipped-ID minislots
		if demand+waste <= n*cap {
			return sim.Duration(n+1) * cyc, nil
		}
	}
	return 0, fmt.Errorf("flexray: no latency bound for %s within %d cycles (dynamic segment overloaded)", f.Name, maxCycles)
}

// Signal is a periodic payload to place into the static segment.
type Signal struct {
	Name   string
	Period sim.Duration
	// Deadline defaults to Period.
	Deadline sim.Duration
}

// Assignment places a signal into a static slot.
type Assignment struct {
	Signal     Signal
	SlotID     int
	Base       int
	Repetition int
	WCRT       sim.Duration
}

// Synthesize builds a static-segment schedule for the given signals:
// each signal gets a (slot, base, repetition) position whose worst-case
// latency meets its deadline. It returns an error when the static segment
// cannot accommodate the set — the "careful planning and tool support"
// cost of time-triggered design the paper notes (§1).
func Synthesize(cfg Config, signals []Signal) ([]Assignment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.StaticSlots == 0 {
		return nil, fmt.Errorf("flexray: no static slots to synthesize into")
	}
	cyc := cfg.CycleLength()
	// Faster (smaller repetition) signals are placed first: they are the
	// hardest to fit.
	ordered := append([]Signal(nil), signals...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Period < ordered[j].Period })

	// occupancy[slot] marks which of the 64 cycles are taken.
	occupancy := make([][MaxCycle]bool, cfg.StaticSlots+1)
	var out []Assignment
	for _, s := range ordered {
		if s.Period <= 0 {
			return nil, fmt.Errorf("flexray: signal %s: non-positive period", s.Name)
		}
		deadline := s.Deadline
		if deadline == 0 {
			deadline = s.Period
		}
		// Largest power-of-two repetition whose WCRT still meets the
		// deadline: rep*cycle + slot <= deadline.
		rep := 1
		for rep*2 <= MaxCycle && sim.Duration(rep*2)*cyc+cfg.SlotLength <= deadline {
			rep *= 2
		}
		if sim.Duration(rep)*cyc+cfg.SlotLength > deadline {
			return nil, fmt.Errorf("flexray: signal %s: deadline %v unreachable (cycle %v)", s.Name, deadline, cyc)
		}
		placed := false
	place:
		for slot := 1; slot <= cfg.StaticSlots; slot++ {
			for base := 0; base < rep; base++ {
				free := true
				for c := base; c < MaxCycle; c += rep {
					if occupancy[slot][c] {
						free = false
						break
					}
				}
				if !free {
					continue
				}
				for c := base; c < MaxCycle; c += rep {
					occupancy[slot][c] = true
				}
				out = append(out, Assignment{
					Signal: s, SlotID: slot, Base: base, Repetition: rep,
					WCRT: sim.Duration(rep)*cyc + cfg.SlotLength,
				})
				placed = true
				break place
			}
		}
		if !placed {
			return nil, fmt.Errorf("flexray: static segment full: cannot place signal %s (rep %d)", s.Name, rep)
		}
	}
	return out, nil
}
