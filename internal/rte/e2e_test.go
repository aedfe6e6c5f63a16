package rte

import (
	"testing"

	"autorte/internal/e2eprot"
	"autorte/internal/flexray"
	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/sim"
)

const sigSensorCtrl = "Sensor.out.v->Ctrl.in"

func detectedFaults(p *Platform, class string) uint64 {
	return p.Metrics.Counter("e2e_detected_faults_total",
		"Communication faults detected by E2E protection, by detected class.",
		obs.Label{Key: "class", Value: class}).Value()
}

func e2eChecks(p *Platform, status string) uint64 {
	return p.Metrics.Counter("e2e_checks_total",
		"E2E verification checks on protected channels, by check status.",
		obs.Label{Key: "status", Value: status}).Value()
}

// protectedChain builds the CAN chain with E2E on and the standard
// sensor/controller behaviours attached.
func protectedChain(t *testing.T, opts Options) (*Platform, *int, *float64) {
	t.Helper()
	p := MustBuild(chainSystem(model.BusCAN), opts)
	applied := new(int)
	lastU := new(float64)
	p.SetBehavior("Sensor", "sample", func(c *Context) { c.Write("out", "v", float64(c.Job())) })
	p.SetBehavior("Ctrl", "law", func(c *Context) { c.Write("cmd", "u", c.Read("in", "v")*2) })
	p.SetBehavior("Act", "apply", func(c *Context) { *applied++; *lastU = c.Read("in", "u") })
	return p, applied, lastU
}

func TestE2EProtectedChainDelivers(t *testing.T) {
	p, applied, lastU := protectedChain(t, Options{E2E: &E2EOptions{}})
	p.Run(sim.MS(95))
	if *applied != 10 || *lastU != 18 {
		t.Fatalf("protected chain: applied=%d lastU=%v, want 10/18", *applied, *lastU)
	}
	if n := p.Errors.CountKind(ErrComm); n != 0 {
		t.Fatalf("healthy protected chain reported %d comm errors", n)
	}
	if ok := e2eChecks(p, "ok"); ok < 20 { // two protected hops x 10 sends
		t.Fatalf("e2e_checks_total{ok} = %d, want >= 20", ok)
	}
}

func TestE2ECorruptionDetectedAndDropped(t *testing.T) {
	p, applied, _ := protectedChain(t, Options{E2E: &E2EOptions{}})
	p.TamperRx(sigSensorCtrl, func(_ sim.Time, payload []byte, deliver func([]byte)) {
		cp := append([]byte(nil), payload...)
		cp[0] ^= 0xFF
		deliver(cp)
	})
	p.Run(sim.MS(95))
	if *applied != 0 {
		t.Fatalf("corrupted data reached the actuator %d times", *applied)
	}
	if n := detectedFaults(p, "crc"); n < 9 {
		t.Fatalf("detected crc faults = %d, want >= 9", n)
	}
	if p.Errors.CountKind(ErrComm) == 0 {
		t.Fatal("no comm errors reported for sustained corruption")
	}
}

func TestE2ECorruptionSilentWhenUnprotected(t *testing.T) {
	p, applied, lastU := protectedChain(t, Options{}) // no E2E
	p.TamperRx(sigSensorCtrl, func(_ sim.Time, payload []byte, deliver func([]byte)) {
		cp := append([]byte(nil), payload...)
		cp[0] ^= 0xFF
		deliver(cp)
	})
	p.Run(sim.MS(95))
	// Nothing notices: the corrupted values flow straight through.
	if *applied != 10 {
		t.Fatalf("unprotected chain applied %d times, want 10", *applied)
	}
	if *lastU == 18 {
		t.Fatal("corruption had no effect — tamper did not bite")
	}
	if n := p.Errors.CountKind(ErrComm); n != 0 {
		t.Fatalf("unprotected chain reported %d comm errors without detection means", n)
	}
}

func TestE2EDropDetectedByTimeout(t *testing.T) {
	p, applied, _ := protectedChain(t, Options{E2E: &E2EOptions{}})
	p.TamperRx(sigSensorCtrl, func(sim.Time, []byte, func([]byte)) {}) // drop all
	p.Run(sim.MS(95))
	if *applied != 0 {
		t.Fatalf("dropped stream reached the actuator %d times", *applied)
	}
	if n := detectedFaults(p, "timeout"); n < 5 {
		t.Fatalf("detected timeout faults = %d, want >= 5 (supervision every period past the bound)", n)
	}
	if p.Errors.CountKind(ErrComm) == 0 {
		t.Fatal("no comm errors reported for a dead channel")
	}
}

func TestE2EDuplicateDetected(t *testing.T) {
	p, applied, _ := protectedChain(t, Options{E2E: &E2EOptions{}})
	p.TamperRx(sigSensorCtrl, func(_ sim.Time, payload []byte, deliver func([]byte)) {
		deliver(payload)
		deliver(append([]byte(nil), payload...))
	})
	p.Run(sim.MS(95))
	// Each duplicate is dropped; the chain behaves as if unduplicated.
	if *applied != 10 {
		t.Fatalf("applied %d times under duplication, want 10", *applied)
	}
	if n := detectedFaults(p, "duplicate"); n < 9 {
		t.Fatalf("detected duplicates = %d, want >= 9", n)
	}
}

func TestE2EDuplicateSilentWhenUnprotected(t *testing.T) {
	p, applied, _ := protectedChain(t, Options{})
	p.TamperRx(sigSensorCtrl, func(_ sim.Time, payload []byte, deliver func([]byte)) {
		deliver(payload)
		deliver(append([]byte(nil), payload...))
	})
	p.Run(sim.MS(95))
	if *applied != 20 {
		t.Fatalf("applied %d times, want 20 (every duplicate re-triggers the chain)", *applied)
	}
}

func TestContextE2EStatus(t *testing.T) {
	var state e2eprot.SMState
	var protected bool
	// Both byte-payload media report the consumer's qualified state.
	for _, kind := range []model.BusKind{model.BusCAN, model.BusFlexRay} {
		p := MustBuild(chainSystem(kind), Options{E2E: &E2EOptions{}})
		p.SetBehavior("Ctrl", "law", func(c *Context) {
			state, protected = c.E2EStatus("in", "v")
			c.Write("cmd", "u", c.Read("in", "v"))
		})
		p.Run(sim.MS(195))
		if !protected {
			t.Fatalf("%v: remote protected element not reported as protected", kind)
		}
		if state != e2eprot.SMValid {
			t.Fatalf("%v: qualified state after a healthy run = %v, want valid", kind, state)
		}
		if st, ok := p.E2EState(sigSensorCtrl); !ok || st != e2eprot.SMValid {
			t.Fatalf("%v: platform E2EState = %v/%v, want valid/true", kind, st, ok)
		}
	}

	// Local elements have no protected channel.
	s := chainSystem(model.BusCAN)
	s.Mapping["Ctrl"] = "ecu1"
	s.Mapping["Act"] = "ecu1"
	lp := MustBuild(s, Options{E2E: &E2EOptions{}})
	lp.SetBehavior("Ctrl", "law", func(c *Context) {
		_, protected = c.E2EStatus("in", "v")
	})
	lp.Run(sim.MS(25))
	if protected {
		t.Fatal("local element reported as E2E-protected")
	}
}

func TestE2EFlexRayChannelFailover(t *testing.T) {
	s := chainSystem(model.BusFlexRay)
	p := MustBuild(s, Options{E2E: &E2EOptions{}})
	var lastApply sim.Time
	p.SetBehavior("Act", "apply", func(c *Context) { lastApply = c.Now() })
	// Channel A dies at 50ms. Timeout supervision qualifies the protected
	// streams invalid and fails each frame over to channel B, where
	// delivery resumes.
	p.FlexRayBus("bus0").FailChannel(flexray.ChannelA, sim.MS(50))
	p.Run(sim.MS(250))
	fo := p.Metrics.Counter("e2e_failovers_total",
		"Protected channels moved to a redundant physical channel after invalid qualification.").Value()
	if fo != 2 { // both chain hops ride bus0
		t.Fatalf("failovers = %d, want 2", fo)
	}
	if lastApply < sim.MS(150) {
		t.Fatalf("no deliveries after failover: last apply at %v", lastApply)
	}
	if n := detectedFaults(p, "timeout"); n == 0 {
		t.Fatal("channel death left no timeout detections")
	}
}
