package experiments

import (
	"fmt"

	"autorte/internal/can"
	"autorte/internal/fault"
	"autorte/internal/flexray"
	"autorte/internal/health"
	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/rte"
	"autorte/internal/sim"
)

// E12Config parameterizes the end-to-end communication protection study:
// the same comm-fault load is injected into a protected and an unprotected
// instance of the reference chain, and detection coverage, overhead and
// recovery behaviour are measured.
type E12Config struct {
	Horizon  sim.Time
	InjectAt sim.Time
	// Delay used by the comm-delay class; must exceed the receiver timeout
	// bound (3 periods) to be detectable.
	Delay sim.Duration
	Seed  uint64
}

// DefaultE12 is the published configuration.
func DefaultE12() E12Config {
	return E12Config{
		Horizon: 500 * sim.Millisecond, InjectAt: 100 * sim.Millisecond,
		Delay: sim.MS(45), Seed: 11,
	}
}

// e12Signal is the tampered hop: the sensor value crossing the bus.
const e12Signal = "Sensor.out.v->Ctrl.in"

// E12DetectionCoverage injects every communication fault class of the
// taxonomy into the protected and the unprotected chain and reports the
// injected/detected counts, coverage and the residual undetected rate.
// Corruption, masquerade, duplication and re-sequencing are counted per
// frame; loss and over-bound delay are temporal faults detected by timeout
// supervision, so their coverage is the detection of the outage itself.
func E12DetectionCoverage(cfg E12Config) (*Table, error) {
	tab := &Table{
		Title: "E12 E2E protection: detection coverage per comm fault class",
		Columns: []string{"fault class", "channel", "injected", "detected",
			"coverage", "residual", "det latency", "availability"},
		Notes: []string{
			"corrupt and masquerade both surface as crc failures: the DataID binding makes",
			"a foreign frame indistinguishable from corruption — detected either way.",
			"drop and over-bound delay are detected temporally (timeout supervision);",
			"coverage there is detection of the outage, latency bounded by 3 periods.",
			"the unprotected channel consumes every faulty frame silently (residual 1).",
		},
	}
	classes := []fault.FaultClass{
		fault.FaultCommCorrupt, fault.FaultCommMasquerade, fault.FaultCommDrop,
		fault.FaultCommDuplicate, fault.FaultCommDelay, fault.FaultCommResequence,
	}
	for _, class := range classes {
		for _, protected := range []bool{true, false} {
			r, err := runE12Coverage(cfg, class, protected)
			if err != nil {
				return nil, err
			}
			ch := "unprotected"
			if protected {
				ch = "protected"
			}
			det := "-"
			if r.detected {
				det = fmt.Sprint(r.detLatency)
			}
			tab.Add(class.String(), ch, r.injected, r.detections,
				fmt.Sprintf("%.3f", r.coverage), fmt.Sprintf("%.3f", 1-r.coverage),
				det, fmt.Sprintf("%.2f", r.availability))
		}
	}
	return tab, nil
}

type e12CoverageResult struct {
	injected, detections   int
	coverage, availability float64
	detected               bool
	detLatency             sim.Duration
}

func runE12Coverage(cfg E12Config, class fault.FaultClass, protected bool) (e12CoverageResult, error) {
	opts := rte.Options{}
	if protected {
		opts.E2E = &rte.E2EOptions{}
	}
	p, err := rte.Build(e12System(model.BusCAN), opts)
	if err != nil {
		return e12CoverageResult{}, err
	}
	driveChain(p)
	p.MustBehavior("Sensor", "sample", func(c *rte.Context) { c.Write("out", "v", float64(c.Job())) })

	var inj *fault.CommInjector
	detClass := ""
	switch class {
	case fault.FaultCommCorrupt:
		inj = fault.CorruptPayload(p, e12Signal, cfg.InjectAt, 0, cfg.Seed)
		detClass = "crc"
	case fault.FaultCommMasquerade:
		inj = fault.Masquerade(p, e12Signal, cfg.InjectAt, 0)
		detClass = "crc"
	case fault.FaultCommDrop:
		inj = fault.DropPDU(p, e12Signal, cfg.InjectAt, 0)
		detClass = "timeout"
	case fault.FaultCommDuplicate:
		inj = fault.DuplicatePDU(p, e12Signal, cfg.InjectAt, 0)
		detClass = "duplicate"
	case fault.FaultCommDelay:
		inj = fault.DelayPDU(p, e12Signal, cfg.InjectAt, 0, cfg.Delay)
		detClass = "timeout"
	case fault.FaultCommResequence:
		inj = fault.ResequencePDU(p, e12Signal, cfg.InjectAt, 0)
		detClass = "sequence"
	default:
		return e12CoverageResult{}, fmt.Errorf("e12: class %v is not a comm fault", class)
	}
	p.Run(cfg.Horizon)

	r := e12CoverageResult{
		injected:   inj.Injected,
		detections: e12Detected(p, detClass),
	}
	r.detLatency, r.detected = fault.DetectionLatency(p.Errors.Records(), rte.ErrComm, cfg.InjectAt)
	r.availability, err = fault.Availability(p.Trace, "Act.apply", sim.MS(10), cfg.InjectAt, cfg.Horizon)
	if err != nil {
		return e12CoverageResult{}, fmt.Errorf("e12 %v: %w", class, err)
	}
	switch class {
	case fault.FaultCommDrop, fault.FaultCommDelay:
		// Temporal faults: coverage is detection of the outage.
		if r.detected {
			r.coverage = 1
		}
	default:
		if r.injected > 0 && r.detections > 0 {
			r.coverage = float64(min(r.detections, r.injected)) / float64(r.injected)
		}
	}
	return r, nil
}

// E12Overhead quantifies what the protection costs on the wire and on the
// chain, fault-free: payload growth (the P01 header), CAN frame bits and
// frame time at the configured bit rate, and the measured end-to-end chain
// latency with and without protection.
func E12Overhead(cfg E12Config) (*Table, error) {
	tab := &Table{
		Title:   "E12 E2E protection: bandwidth and latency overhead (fault-free)",
		Columns: []string{"channel", "pdu bytes", "frame bits", "frame time", "mean chain latency", "bw overhead"},
		Notes: []string{
			"P01 adds 2 header bytes per frame (CRC-8 + counter); frame bits follow the",
			"classic CAN stuffing formula, so relative overhead shrinks with payload size.",
		},
	}
	baseBits := 0
	for _, protected := range []bool{false, true} {
		opts := rte.Options{}
		if protected {
			opts.E2E = &rte.E2EOptions{}
		}
		p, err := rte.Build(e12System(model.BusCAN), opts)
		if err != nil {
			return nil, err
		}
		var total sim.Duration
		var n int
		driveChain(p)
		p.MustBehavior("Sensor", "sample", func(c *rte.Context) { c.Write("out", "v", float64(c.Job())) })
		p.MustBehavior("Act", "apply", func(c *rte.Context) {
			job := int64(c.Read("in", "u"))
			total += c.Now() - sim.Time(job)*sim.Time(sim.MS(10))
			n++
		})
		p.Run(cfg.Horizon)
		if n == 0 {
			return nil, fmt.Errorf("e12 overhead: chain delivered nothing")
		}
		// Both of the chain's frames carry one UInt16 element.
		bus := p.CANBus("bus0")
		bytes := bus.Messages()[0].DLC
		bits := can.FrameBits(bytes, bus.Cfg.Extended)
		ch := "unprotected"
		if protected {
			ch = "protected"
		} else {
			baseBits = bits
		}
		tab.Add(ch, bytes, bits, bus.Cfg.FrameTime(bytes), total/sim.Duration(n),
			fmt.Sprintf("%+.1f%%", 100*float64(bits-baseBits)/float64(baseBits)))
	}
	return tab, nil
}

// E12Recovery exercises what happens after detection: a sustained
// corruption drives the receiver partition through the health escalation
// ladder into degradation, and a FlexRay channel loss is qualified invalid
// by timeout supervision and failed over to the redundant channel, where
// service resumes.
func E12Recovery(cfg E12Config) (*Table, error) {
	tab := &Table{
		Title: "E12 E2E protection: recovery after sustained comm faults",
		Columns: []string{"scenario", "detected", "det latency", "attempts",
			"failovers", "final state", "recovered", "rec latency", "availability"},
		Notes: []string{
			"corruption is attributed to the consuming partition: the ladder restarts it,",
			"cannot heal a bus fault, and degrades — fail-silent at component scope.",
			"the FlexRay frames fail over A->B after invalid qualification; the queued",
			"backlog then drains and actuation resumes on the surviving channel.",
		},
	}

	corrupt, m, loss, err := e12RecoveryScenarios(cfg)
	if err != nil {
		return nil, err
	}

	// Scenario 1: permanent corruption on the protected CAN chain.
	{
		p := corrupt
		p.Run(cfg.Horizon)
		lat, det := fault.DetectionLatency(p.Errors.Records(), rte.ErrComm, cfg.InjectAt)
		st := m.Status()[0]
		av, err := fault.Availability(p.Trace, "Act.apply", sim.MS(10), cfg.InjectAt, cfg.Horizon)
		if err != nil {
			return nil, err
		}
		tab.Add("can corrupt (permanent)", det, lat, st.Attempts, "-",
			m.Degradation().Level().String()+"/"+st.State.String(), false, "-",
			fmt.Sprintf("%.2f", av))
	}

	// Scenario 2: FlexRay channel A dies; protected streams fail over.
	{
		p := loss
		p.Run(cfg.Horizon)
		lat, det := fault.DetectionLatency(p.Errors.Records(), rte.ErrComm, cfg.InjectAt)
		fo := p.Metrics.Counter("e2e_failovers_total",
			"Protected channels moved to a redundant physical channel after invalid qualification.").Value()
		recLat, rec, err := fault.ServiceRecovery(p.Trace, "Act.apply", sim.MS(10), cfg.InjectAt, cfg.Horizon)
		if err != nil {
			return nil, err
		}
		recs := "-"
		if rec {
			recs = fmt.Sprint(recLat)
		}
		av, err := fault.Availability(p.Trace, "Act.apply", sim.MS(10), cfg.InjectAt, cfg.Horizon)
		if err != nil {
			return nil, err
		}
		tab.Add("flexray channel A loss", det, lat, "-", fo, "normal", rec, recs,
			fmt.Sprintf("%.2f", av))
	}
	return tab, nil
}

// e12RecoveryScenarios builds the two E12 recovery scenarios on the
// protected chain, armed but not yet run: permanent payload corruption on
// CAN from cfg.InjectAt, with the receiver partition Ctrl under the health
// ladder m (and its degradation), and the FlexRay chain losing channel A
// at cfg.InjectAt.
func e12RecoveryScenarios(cfg E12Config) (corrupt *rte.Platform, m *health.Monitor, loss *rte.Platform, err error) {
	corrupt, err = rte.Build(e12System(model.BusCAN), rte.Options{E2E: &rte.E2EOptions{}})
	if err != nil {
		return nil, nil, nil, err
	}
	driveChain(corrupt)
	fault.CorruptPayload(corrupt, e12Signal, cfg.InjectAt, 0, cfg.Seed)
	deg := health.MustDegradation(corrupt, map[health.Level][]string{
		health.Degraded: {"Sensor.sample", "Ctrl.law", "Act.apply"},
		health.LimpHome: {"Act.apply"},
	})
	m = health.NewMonitor(corrupt, health.MonitorOptions{Degradation: deg})
	m.MustProtect("Ctrl", ladderPolicy("law"))

	loss, err = rte.Build(e12System(model.BusFlexRay), rte.Options{E2E: &rte.E2EOptions{}})
	if err != nil {
		return nil, nil, nil, err
	}
	driveChain(loss)
	loss.FlexRayBus("bus0").FailChannel(flexray.ChannelA, cfg.InjectAt)
	return corrupt, m, loss, nil
}

func e12Detected(p *rte.Platform, class string) int {
	return int(p.Metrics.Counter("e2e_detected_faults_total",
		"Communication faults detected by E2E protection, by detected class.",
		obs.Label{Key: "class", Value: class}).Value())
}

// e12System is the protected reference chain: the sensor on e1 feeds
// the controller on e2, which commands the actuator back on e1, both
// hops over one bus of the given kind.
func e12System(busKind model.BusKind) *model.System {
	sys := chainSystem("e12")
	sys.ECUs = []*model.ECU{
		{Name: "e1", Speed: 1, Buses: []string{"bus0"}},
		{Name: "e2", Speed: 1, Buses: []string{"bus0"}},
	}
	sys.Buses = []*model.Bus{{Name: "bus0", Kind: busKind, BitRate: 500_000}}
	sys.Mapping = map[string]string{"Sensor": "e1", "Ctrl": "e2", "Act": "e1"}
	return sys
}
