package rte

import (
	"fmt"
	"slices"
	"sort"

	"autorte/internal/can"
	"autorte/internal/e2eprot"
	"autorte/internal/flexray"
	"autorte/internal/model"
	"autorte/internal/sim"
	"autorte/internal/ttp"
	"autorte/internal/vfb"
)

// BusPlan is the RTE's frame decision for one bus: the channel
// configuration and one frame per route segment the bus carries. Build
// wires its callbacks onto the plan and the verifier analyzes the same
// plan, so every bound Verify reports is a bound on the frames the
// platform sends.
type BusPlan struct {
	Bus *model.Bus
	// Frames holds one frame per route segment on the bus, in the order of
	// the routes the plan was made from (SignalName order).
	Frames []Frame
	// CAN is a CAN bus's channel: its bit rate with the identifier format
	// of Options.CANConfig.
	CAN can.Config
	// FlexRay is a FlexRay bus's communication cycle.
	FlexRay flexray.Config
	// TTP is a TTP bus's cluster configuration, and Nodes the ECUs
	// attached to the bus in slot order.
	TTP   ttp.Config
	Nodes []string
}

// Frame is one route segment's frame on its bus.
type Frame struct {
	// Signal is the route's SignalName, the name analyses report.
	Signal string
	// Name is the segment as the platform names it: Signal on a direct
	// route, Signal~1 and Signal~2 on the two hops of a gatewayed one.
	Name string
	// Period is the producer's period, 0 for an event-driven route.
	Period sim.Duration
	// Bits is the packed width of the signal.
	Bits int
	// Length is the payload in bytes: the packed signal, then the E2E
	// header when protection is on. On CAN it is the frame's DLC.
	Length int
	// ID is a CAN frame's identifier, 0x100 plus its rank on the bus, or
	// a FlexRay event frame's dynamic frame ID, numbered on from the last
	// static slot. Zero otherwise.
	ID uint32
}

// PlanBus decides the frames of the routes that cross bus b (a
// gatewayed route crosses both of its buses), ranked in the order given,
// which must be SignalName order as vfb.Resolve returns the routes. Unset
// options take Build's defaults. A frame its medium cannot carry is an
// error, which Build and the verifier both return.
func PlanBus(sys *model.System, b *model.Bus, routes []vfb.Route, opts Options) (BusPlan, error) {
	opts.fill()
	n := 0
	for i := range routes {
		if routes[i].Crosses(b.Name) {
			n++
		}
	}
	bp := BusPlan{Bus: b, Frames: make([]Frame, 0, n)}
	header := 0 // E2E header bytes; TTP transports values, not byte payloads
	switch b.Kind {
	case model.BusCAN:
		bp.CAN = can.Config{BitRate: b.BitRate, Extended: opts.CANConfig.Extended}
		header = e2eprot.P01.HeaderLen()
	case model.BusFlexRay:
		bp.FlexRay = opts.FlexRayConfig
		header = e2eprot.P05.HeaderLen()
	case model.BusTTP:
		bp.TTP = ttp.Config{SlotLength: opts.TTPSlotLength, RoundsPerCluster: 2, SyncEnabled: true}
		for _, e := range sys.ECUs {
			if slices.Contains(e.Buses, b.Name) {
				bp.Nodes = append(bp.Nodes, e.Name)
			}
		}
		sort.Strings(bp.Nodes)
	}
	if opts.E2E == nil {
		header = 0
	}
	dynamic := 0
	for i := range routes {
		r := &routes[i]
		if !r.Crosses(b.Name) {
			continue
		}
		rank := len(bp.Frames)
		bp.Frames = append(bp.Frames, Frame{Signal: r.SignalName, Name: r.SignalName, Period: sim.Duration(r.Period), Bits: r.Bits})
		f := &bp.Frames[rank]
		if r.Via != "" && r.Bus == b.Name {
			f.Name += "~1"
		} else if r.Via != "" {
			f.Name += "~2"
		}
		if f.Bits < 1 {
			f.Bits = 32
		}
		f.Length = (f.Bits+7)/8 + header
		if b.Kind == model.BusCAN {
			f.ID = 0x100 + uint32(rank)
			if f.Length > 8 {
				return BusPlan{}, fmt.Errorf("rte: bus %s: frame %s: DLC %d outside 0..8", b.Name, f.Name, f.Length)
			}
		}
		if b.Kind == model.BusFlexRay && f.Period <= 0 {
			f.ID = uint32(bp.FlexRay.StaticSlots + 1 + dynamic)
			dynamic++
		}
	}
	return bp, nil
}

// Messages returns the analyzable CAN frame set: the periodic frames,
// named by signal, in ID order. Event frames need explicit minimum
// inter-arrival times and are left out.
func (bp *BusPlan) Messages() []*can.Message {
	// One backing array for the frames instead of a heap object each.
	backing := make([]can.Message, 0, len(bp.Frames))
	out := make([]*can.Message, 0, len(bp.Frames))
	for i := range bp.Frames {
		f := &bp.Frames[i]
		if f.Period <= 0 {
			continue
		}
		backing = append(backing, can.Message{Name: f.Signal, ID: f.ID, DLC: f.Length, Period: f.Period})
		out = append(out, &backing[len(backing)-1])
	}
	return out
}

// Static returns the signals of a FlexRay bus's static segment, the
// periodic frames named by signal, in the order synthesis takes them.
func (bp *BusPlan) Static() []flexray.Signal {
	var sigs []flexray.Signal
	for i := range bp.Frames {
		if f := &bp.Frames[i]; f.Period > 0 {
			sigs = append(sigs, flexray.Signal{Name: f.Signal, Period: f.Period})
		}
	}
	return sigs
}

// Round returns a TTP bus's TDMA round: one slot per attached ECU.
func (bp *BusPlan) Round() sim.Duration {
	return sim.Duration(len(bp.Nodes)) * bp.TTP.SlotLength
}
