package rte

import (
	"fmt"
	"sort"

	"autorte/internal/com"
	"autorte/internal/e2eprot"
	"autorte/internal/flexray"
	"autorte/internal/obs"
	"autorte/internal/sim"
)

// E2EOptions enables AUTOSAR-style end-to-end protection of every
// bus-carried signal route: each CAN or FlexRay segment's payload grows
// by a protection header (CRC + sequence counter, DataID-bound) stamped
// at the sending RTE and verified at the receiving RTE — including each
// hop of a gatewayed route. TTP segments transport values, not byte
// payloads, and stay unprotected; so do local routes, which never leave
// the RTE. Note the header costs payload bytes: a protected CAN segment
// must still fit DLC 8, so elements wider than 48 bits cannot be
// protected over classic CAN.
//
// The type carries no settings: a non-nil value is the switch that turns
// protection on, and every channel runs the e2eprot.Config defaults
// (counter tolerance and window qualification).
type E2EOptions struct{}

// e2eTimeoutFactor scales a route's period into its receiver-side
// staleness bound. Periodless (event) routes get no timeout supervision.
const e2eTimeoutFactor = 3

// e2eChannel is the per-segment protection state: the sending and
// receiving ends plus the recovery hook of the carrying medium.
type e2eChannel struct {
	signal string
	dst    string // consuming component: error reports attribute to it
	period sim.Duration
	tx     *e2eprot.Sender
	rx     *e2eprot.Receiver
	// failover, when non-nil, moves the segment to a redundant physical
	// channel (dual-channel FlexRay); it reports whether it switched.
	failover   func() bool
	failedOver bool
	// checks caches the e2e_checks_total counter of each status (StatusError
	// is the last), registered on the status's first check.
	checks [e2eprot.StatusError + 1]*obs.Counter
}

// RxTamper intercepts one signal's bus reception before E2E verification
// and PDU unpacking: it decides which payloads (if any) actually reach
// the receive path — the injection point for in-fabric communication
// faults (corruption past the bus CRC, masquerade, loss, duplication,
// delay, re-ordering) that package fault's comm injectors model.
type RxTamper func(at sim.Time, payload []byte, deliver func([]byte))

// TamperRx installs t on the named bus signal's delivery path (gateway
// hops are addressable as "sig~1"/"sig~2"). A nil t removes the tamper.
// The hook is consulted dynamically, so injectors may install and remove
// it while the simulation runs.
func (p *Platform) TamperRx(signal string, t RxTamper) {
	if t == nil {
		delete(p.rxTamper, signal)
		return
	}
	p.rxTamper[signal] = t
}

// E2EState returns the window-qualified state of a protected bus signal
// and whether the signal is protected at all.
func (p *Platform) E2EState(signal string) (e2eprot.SMState, bool) {
	ch := p.e2eChans[signal]
	if ch == nil {
		return e2eprot.SMNoData, false
	}
	return ch.rx.State(), true
}

// E2EConfig returns the effective protection configuration of a protected
// signal (fault injectors use it to forge internally consistent frames).
func (p *Platform) E2EConfig(signal string) (e2eprot.Config, bool) {
	ch := p.e2eChans[signal]
	if ch == nil {
		return e2eprot.Config{}, false
	}
	return ch.rx.Config(), true
}

// E2EStatus returns the window-qualified E2E state of the protected
// channel feeding one of the component's required port elements. The
// flag is false for local, unprotected or unknown elements — then the
// state is meaningless. Behaviours use this to gate safety reactions on
// qualified channel failure rather than on single glitches.
func (c *Context) E2EStatus(port, elem string) (e2eprot.SMState, bool) {
	ch := c.p.e2eByDst[storeKey(c.comp.Name, port, elem)]
	if ch == nil {
		return e2eprot.SMNoData, false
	}
	return ch.rx.State(), true
}

// e2eDataID derives a stable 16-bit DataID from the segment's signal
// name (FNV-1a, xor-folded). Gateway hops "sig~1"/"sig~2" thus get
// distinct IDs: a PDU leaked across hops is a masquerade.
func e2eDataID(signal string) uint16 {
	h := uint32(2166136261)
	for i := 0; i < len(signal); i++ {
		h = (h ^ uint32(signal[i])) * 16777619
	}
	return uint16(h>>16) ^ uint16(h)
}

// protectSegment arms a segment's E2E protection when it is enabled: the
// plan sized the payload with the profile header after the data bytes
// (signal layout untouched), and the channel's sender/receiver state is
// registered under the segment name and, on a route's final hop, under
// its consumer element. Returns nil when protection is off.
func (p *Platform) protectSegment(seg busSegment, pdu *com.IPdu, profile e2eprot.ProfileKind) *e2eChannel {
	if p.opts.E2E == nil {
		return nil
	}
	f := seg.frame
	cfg := e2eprot.Config{
		Profile: profile, DataID: e2eDataID(f.Name), Offset: pdu.Length - profile.HeaderLen(),
	}
	if f.Period > 0 {
		cfg.Timeout = e2eTimeoutFactor * f.Period
	}
	pdu.E2E = &cfg
	ch := &e2eChannel{
		signal: f.Name, dst: seg.dst, period: f.Period,
		tx: e2eprot.NewSender(cfg), rx: e2eprot.NewReceiver(cfg),
	}
	p.e2eChans[f.Name] = ch
	if seg.dstKey != "" {
		// The consumer-facing qualification state is the final hop's.
		p.e2eByDst[seg.dstKey] = ch
	}
	return ch
}

// receivePath builds the segment's reception action: E2E verification
// (when protected), PDU unpacking, then delivery. Non-OK receptions are
// dropped — the E2E contract is "correct data or no data".
func (p *Platform) receivePath(seg busSegment, pdu *com.IPdu, ch *e2eChannel) func([]byte) {
	deliver, signal := seg.deliver, seg.frame.Name
	return func(payload []byte) {
		if ch != nil && !p.e2eAccept(ch, payload) {
			return
		}
		v, err := pdu.UnpackSignal(payload, "v")
		if err != nil {
			p.Errors.Report(signal, ErrComm, err.Error())
			return
		}
		deliver(v)
	}
}

// deliverRx funnels a bus reception through the signal's tamper hook (if
// any) into the receive path.
func (p *Platform) deliverRx(signal string, payload []byte, rx func([]byte)) {
	if t := p.rxTamper[signal]; t != nil {
		t(p.K.Now(), payload, rx)
		return
	}
	rx(payload)
}

// e2eAccept verifies one reception and reports whether it may be
// delivered.
func (p *Platform) e2eAccept(ch *e2eChannel, payload []byte) bool {
	st := ch.rx.Check(p.K.Now(), payload)
	p.noteE2E(ch, st)
	return st == e2eprot.StatusOK
}

// noteE2E meters a check verdict and, for detected faults, reports a
// communication error (feeding the health monitor's debounce/escalation
// ladder) and triggers channel failover once the window qualifies the
// channel as invalid.
func (p *Platform) noteE2E(ch *e2eChannel, st e2eprot.Status) {
	c := ch.checks[st]
	if c == nil {
		c = p.Metrics.Counter("e2e_checks_total",
			"E2E verification checks on protected channels, by check status.",
			obs.Label{Key: "status", Value: st.String()})
		ch.checks[st] = c
	}
	c.Inc()
	cls := st.DetectedClass()
	if cls == "" {
		return
	}
	p.Metrics.Counter("e2e_detected_faults_total",
		"Communication faults detected by E2E protection, by detected class.",
		obs.Label{Key: "class", Value: cls}).Inc()
	p.Errors.Report(ch.dst, ErrComm, fmt.Sprintf("E2E %s on signal %s", st, ch.signal))
	if ch.rx.State() == e2eprot.SMInvalid {
		p.e2eFailover(ch)
	}
}

// e2eFailover moves a qualified-invalid channel to its redundant medium
// (dual-channel FlexRay) once, resetting the receiver so the stream gets
// a fresh counter baseline on the surviving channel.
func (p *Platform) e2eFailover(ch *e2eChannel) {
	if ch.failedOver || ch.failover == nil {
		return
	}
	ch.failedOver = true
	if !ch.failover() {
		return
	}
	ch.rx.Reset()
	p.Metrics.Counter("e2e_failovers_total",
		"Protected channels moved to a redundant physical channel after invalid qualification.").Inc()
	p.DLT.Emitf(int64(p.K.Now()), obs.LevelWarn, "RTE", "E2E",
		"signal %s qualified invalid: failing over to the redundant FlexRay channel", ch.signal)
}

// startE2ESupervision arms the receiver-side timeout supervision of
// every protected periodic segment: a check with no reception runs each
// period, reporting NotAvailable (and feeding the escalation ladder)
// once the staleness bound is crossed. The first check waits one full
// timeout so startup transport latency is not a fault.
func (p *Platform) startE2ESupervision() {
	names := make([]string, 0, len(p.e2eChans))
	for name := range p.e2eChans {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ch := p.e2eChans[name]
		if ch.period <= 0 || ch.rx.Config().Timeout <= 0 {
			continue
		}
		p.superviseE2E(ch, p.K.Now()+ch.rx.Config().Timeout)
	}
}

func (p *Platform) superviseE2E(ch *e2eChannel, at sim.Time) {
	p.K.AtPrio(at, 50, func() {
		p.noteE2E(ch, ch.rx.Check(at, nil))
		p.superviseE2E(ch, at+ch.period)
	})
}

// frFailover builds the dual-channel fallback for a single-channel
// FlexRay frame: flip to the other physical channel. Redundant
// (ChannelAB) frames need no action — the bus already survives on
// either channel.
func frFailover(f *flexray.Frame) func() bool {
	return func() bool {
		switch f.Channel {
		case flexray.ChannelA:
			f.Channel = flexray.ChannelB
		case flexray.ChannelB:
			f.Channel = flexray.ChannelA
		case flexray.ChannelAB:
			return false
		default:
			return false
		}
		return true
	}
}
