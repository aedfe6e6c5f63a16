package health

import (
	"fmt"
	"strings"
	"testing"

	"autorte/internal/model"
	"autorte/internal/obs"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/trace"
)

// testSystem: Sensor -> Ctrl critical chain plus a sheddable Comfort
// runnable and mode-switch handlers, all on one ECU.
func testSystem() *model.System {
	ifV := &model.PortInterface{
		Name: "IfV", Kind: model.SenderReceiver,
		Elements: []model.DataElement{{Name: "v", Type: model.UInt16}},
	}
	return &model.System{
		Name:       "health",
		Interfaces: []*model.PortInterface{ifV},
		Components: []*model.SWC{
			{
				Name:  "Sensor",
				Ports: []model.Port{{Name: "out", Direction: model.Provided, Interface: ifV}},
				Runnables: []model.Runnable{{
					Name: "sample", WCETNominal: sim.US(50),
					Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(10)},
					Writes:  []model.PortRef{{Port: "out", Elem: "v"}},
				}},
			},
			{
				Name:  "Ctrl",
				Ports: []model.Port{{Name: "in", Direction: model.Required, Interface: ifV}},
				Runnables: []model.Runnable{{
					Name: "step", WCETNominal: sim.US(50),
					Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(10), Offset: sim.MS(5)},
					Reads:   []model.PortRef{{Port: "in", Elem: "v"}},
				}},
			},
			{
				Name: "Comfort",
				Runnables: []model.Runnable{{
					Name: "blink", WCETNominal: sim.US(100),
					Trigger: model.Trigger{Kind: model.TimingEvent, Period: sim.MS(20)},
				}},
			},
			{
				Name: "Diag",
				Runnables: []model.Runnable{
					{
						Name: "onRecovery", WCETNominal: sim.US(10),
						Trigger: model.Trigger{Kind: model.ModeSwitchEvent, Mode: "recovery"},
					},
					{
						Name: "onLimp", WCETNominal: sim.US(10),
						Trigger: model.Trigger{Kind: model.ModeSwitchEvent, Mode: "limp-home"},
					},
				},
			},
		},
		ECUs:       []*model.ECU{{Name: "e1", Speed: 1}},
		Connectors: []model.Connector{{FromSWC: "Sensor", FromPort: "out", ToSWC: "Ctrl", ToPort: "in"}},
		Mapping:    map[string]string{"Sensor": "e1", "Ctrl": "e1", "Comfort": "e1", "Diag": "e1"},
	}
}

func reportAt(p *rte.Platform, at sim.Time, source string, kind rte.ErrorKind) {
	p.K.At(at, func() { p.Errors.Report(source, kind, "test") })
}

func TestDebounceQualifiesExactlyAtThreshold(t *testing.T) {
	// Inc 1, Threshold 3: the third report inside one decay window
	// qualifies; two reports never do.
	for _, tc := range []struct {
		reports  int
		episodes int64
	}{{2, 0}, {3, 1}} {
		p := rte.MustBuild(testSystem(), rte.Options{})
		m := NewMonitor(p, MonitorOptions{})
		m.MustProtect("Sensor", Policy{Debounce: DebounceConfig{Inc: 1, Dec: 1, Threshold: 3}})
		for i := 0; i < tc.reports; i++ {
			reportAt(p, sim.MS(1)+sim.Time(i)*sim.Time(sim.MS(1)), "Sensor", rte.ErrSensor)
		}
		p.Run(sim.MS(9)) // stop before decay windows for the edge check
		st := m.Status()[0]
		if st.Episodes != tc.episodes {
			t.Fatalf("%d reports -> %d episodes, want %d", tc.reports, st.Episodes, tc.episodes)
		}
		if tc.episodes == 0 && st.State != Qualifying {
			t.Fatalf("%d reports -> state %v, want qualifying", tc.reports, st.State)
		}
	}
}

func TestDebounceDecayDefeatsSpreadOutGlitches(t *testing.T) {
	p := rte.MustBuild(testSystem(), rte.Options{})
	m := NewMonitor(p, MonitorOptions{})
	m.MustProtect("Sensor", Policy{Debounce: DebounceConfig{Inc: 1, Dec: 1, Threshold: 3}})
	// One glitch every 25ms: the counter decays to zero between them.
	for _, at := range []sim.Time{sim.MS(1), sim.MS(26), sim.MS(51), sim.MS(76)} {
		reportAt(p, at, "Sensor", rte.ErrSensor)
	}
	p.Run(sim.MS(150))
	st := m.Status()[0]
	if st.Episodes != 0 {
		t.Fatalf("spread-out glitches qualified: %+v", st)
	}
	if st.State != Healthy {
		t.Fatalf("final state %v, want healthy (counters decayed)", st.State)
	}
}

func TestQualifiedEpisodeHealsAfterQuietPeriod(t *testing.T) {
	p := rte.MustBuild(testSystem(), rte.Options{})
	m := NewMonitor(p, MonitorOptions{})
	m.MustProtect("Sensor", Policy{HealAfter: sim.MS(50)})
	reportAt(p, sim.MS(1), "Sensor", rte.ErrSensor) // default threshold: qualifies at once
	p.Run(sim.MS(200))
	st := m.Status()[0]
	if st.Episodes != 1 || st.State != Healthy {
		t.Fatalf("status %+v, want 1 healed episode", st)
	}
	if got := p.Metrics.Counter("health_recoveries_total", "",
		obs.Label{Key: "swc", Value: "Sensor"}).Value(); got != 1 {
		t.Fatalf("health_recoveries_total = %d, want 1", got)
	}
	// Qualification triggered the notify rung, which runs the subscribed
	// recovery handler.
	if p.Trace.Count(trace.Finish, "Diag.onRecovery") == 0 {
		t.Fatal("recovery-mode handler never ran")
	}
}

// faultySensor reports a sensor error on every job — a persistent fault
// no recovery action can cure, so the ladder must climb to safe-stop.
func faultySensor(c *rte.Context) {
	c.Write("out", "v", 1)
	c.Report(rte.ErrSensor, "persistent fault")
}

func ladderScenario(t *testing.T) (*rte.Platform, *Monitor) {
	t.Helper()
	p := rte.MustBuild(testSystem(), rte.Options{})
	if err := p.SetBehavior("Sensor", "sample", faultySensor); err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(p, MonitorOptions{})
	m.MustProtect("Sensor", Policy{
		MaxAttempts: 1, Cooldown: sim.MS(5),
		ResetDowntime: sim.MS(20), HealAfter: sim.MS(100),
	})
	return p, m
}

func TestEscalationLadderClimbsToSafeStop(t *testing.T) {
	p, m := ladderScenario(t)
	p.Run(sim.MS(500))
	st := m.Status()[0]
	if st.State != SafeStopped {
		t.Fatalf("final state %v, want safe-stopped (status %+v)", st.State, st)
	}
	for _, rung := range []Rung{RungNotify, RungRestartRunnable, RungRestartPartition, RungECUReset, RungSafeStop} {
		if got := p.Metrics.Counter("health_escalations_total", "",
			obs.Label{Key: "rung", Value: rung.String()}).Value(); got == 0 {
			t.Fatalf("rung %v never attempted", rung)
		}
	}
	// Safe-stopped partition sheds all further activations: the last trace
	// records of the sensor task are drops, not finishes.
	if p.RunnableEnabled("Sensor", "sample") {
		t.Fatal("safe-stopped runnable still enabled")
	}
	var lastFinish, lastDrop sim.Time
	for _, rec := range p.Trace.BySource("Sensor.sample") {
		switch rec.Kind {
		case trace.Finish:
			lastFinish = rec.At
		case trace.Drop:
			lastDrop = rec.At
		default:
		}
	}
	if lastDrop <= lastFinish {
		t.Fatalf("no drops after the last finish (finish %v, drop %v)", lastFinish, lastDrop)
	}
}

func TestEscalationLadderIsDeterministic(t *testing.T) {
	// Same scenario twice: the full recovery trace must be identical.
	run := func() []string {
		p, _ := ladderScenario(t)
		p.Run(sim.MS(500))
		var out []string
		for _, rec := range p.Trace.Records {
			if rec.Kind == trace.Recover {
				out = append(out, fmt.Sprintf("%d %s %s", int64(rec.At), rec.Source, rec.Info))
			}
		}
		out = append(out, fmt.Sprintf("errors=%d", p.Errors.Total()))
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("recovery traces differ in length: %d vs %d\n%v\n%v", len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("recovery traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestDeadlineSupervisionQualifies(t *testing.T) {
	sys := testSystem()
	// Sensor cannot make its deadline: every job misses.
	sys.Components[0].Runnables[0].WCETNominal = sim.MS(2)
	sys.Components[0].Runnables[0].Deadline = sim.MS(1)
	p := rte.MustBuild(sys, rte.Options{})
	m := NewMonitor(p, MonitorOptions{})
	m.MustProtect("Sensor", Policy{Debounce: DebounceConfig{Inc: 1, Dec: 1, Threshold: 3}})
	p.Run(sim.MS(200))
	if got := p.Errors.CountKind(rte.ErrTiming); got < 3 {
		t.Fatalf("deadline supervision reported %d timing errors, want >= 3", got)
	}
	st := m.Status()[0]
	if st.Episodes == 0 || st.Attempts == 0 {
		t.Fatalf("sustained deadline misses never qualified: %+v", st)
	}
	// The first qualification needs Threshold windows of misses.
	recs := p.Errors.Records()
	if len(recs) == 0 || sim.Time(recs[0].At) < sim.MS(10) {
		t.Fatalf("first report suspiciously early: %+v", recs[0])
	}
}

func TestFlowSupervisionDetectsIllegalWalk(t *testing.T) {
	p := rte.MustBuild(testSystem(), rte.Options{})
	m := NewMonitor(p, MonitorOptions{})
	m.MustProtect("Ctrl", Policy{})
	if err := m.SuperviseFlow("Ctrl", "step", FlowGraph{
		Initial: 1, Final: 3,
		Next: map[int][]int{1: {2}, 2: {3}},
	}); err != nil {
		t.Fatal(err)
	}
	skipFrom := sim.MS(100)
	if err := p.SetBehavior("Ctrl", "step", func(c *rte.Context) {
		m.Checkpoint(c, 1)
		if c.Now() < skipFrom {
			m.Checkpoint(c, 2) // healthy walk: 1 -> 2 -> 3
		}
		m.Checkpoint(c, 3) // corrupted walk skips checkpoint 2
	}); err != nil {
		t.Fatal(err)
	}
	p.Run(sim.MS(200))
	flows := p.Errors.CountKind(rte.ErrFlow)
	if flows == 0 {
		t.Fatal("illegal flow never detected")
	}
	// Healthy phase must be violation-free.
	for _, rec := range p.Errors.Records() {
		if rec.Kind == rte.ErrFlow && sim.Time(rec.At) < skipFrom {
			t.Fatalf("flow violation during healthy phase: %+v", rec)
		}
	}
	if st := m.Status()[0]; st.Episodes == 0 {
		t.Fatalf("flow violations never qualified: %+v", st)
	}
}

func countInWindow(p *rte.Platform, source string, kind trace.Kind, from, to sim.Time) int {
	n := 0
	for _, rec := range p.Trace.BySource(source) {
		if rec.Kind == kind && rec.At > from && rec.At <= to {
			n++
		}
	}
	return n
}

func TestLimpHomeKeepsCriticalChainShedsComfort(t *testing.T) {
	p := rte.MustBuild(testSystem(), rte.Options{})
	d := MustDegradation(p, map[Level][]string{
		LimpHome: {"Sensor.sample", "Ctrl.step"},
	})
	var limpRan int
	if err := p.SetBehavior("Diag", "onLimp", func(c *rte.Context) { limpRan++ }); err != nil {
		t.Fatal(err)
	}
	p.K.At(sim.MS(50), func() { d.To(LimpHome) })
	p.K.At(sim.MS(100), func() { d.To(Normal) })
	p.Run(sim.MS(150))

	// Critical chain alive through limp-home: every 10ms job finishes.
	if got := countInWindow(p, "Sensor.sample", trace.Finish, sim.MS(50), sim.MS(100)); got != 5 {
		t.Fatalf("critical Sensor.sample finished %d jobs in limp-home, want 5", got)
	}
	if got := countInWindow(p, "Ctrl.step", trace.Finish, sim.MS(50), sim.MS(100)); got != 5 {
		t.Fatalf("critical Ctrl.step finished %d jobs in limp-home, want 5", got)
	}
	// Shed runnable provably inactive: zero finishes, auditable drops.
	if got := countInWindow(p, "Comfort.blink", trace.Finish, sim.MS(50), sim.MS(100)); got != 0 {
		t.Fatalf("shed Comfort.blink finished %d jobs during limp-home", got)
	}
	if got := countInWindow(p, "Comfort.blink", trace.Drop, sim.MS(50), sim.MS(100)); got < 2 {
		t.Fatalf("shed Comfort.blink left %d drop records, want >= 2", got)
	}
	// Back to normal: comfort resumes.
	if got := countInWindow(p, "Comfort.blink", trace.Finish, sim.MS(100), sim.MS(150)); got < 2 {
		t.Fatalf("Comfort.blink did not resume after normal: %d finishes", got)
	}
	if limpRan == 0 {
		t.Fatal("limp-home mode handler never ran")
	}
	if d.Level() != Normal {
		t.Fatalf("final level %v, want normal", d.Level())
	}
}

func TestEscalationDrivesDegradationLevels(t *testing.T) {
	p := rte.MustBuild(testSystem(), rte.Options{})
	// The faulty Sensor stays in every keep-set: limp-home keeps the
	// critical chain (including its failing head) alive and escalating;
	// only safe-stop finally sheds it. Shedding a partition also silences
	// its errors, so a keep-set that drops the faulty component would heal
	// and oscillate instead of escalating.
	d := MustDegradation(p, map[Level][]string{
		Degraded: {"Sensor.sample", "Ctrl.step", "Comfort.blink"},
		LimpHome: {"Sensor.sample", "Ctrl.step"},
	})
	var transitions []string
	d.OnChange = func(from, to Level) {
		transitions = append(transitions, from.String()+">"+to.String())
	}
	if err := p.SetBehavior("Sensor", "sample", faultySensor); err != nil {
		t.Fatal(err)
	}
	m := NewMonitor(p, MonitorOptions{Degradation: d})
	m.MustProtect("Sensor", Policy{
		MaxAttempts: 1, Cooldown: sim.MS(5),
		ResetDowntime: sim.MS(20), HealAfter: sim.MS(100),
	})
	p.Run(sim.MS(500))
	if d.Level() != SafeStop {
		t.Fatalf("final level %v, want safe-stop", d.Level())
	}
	want := []string{"normal>degraded", "degraded>limp-home", "limp-home>safe-stop"}
	if len(transitions) != len(want) {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transitions %v, want %v", transitions, want)
		}
	}
}

func TestProtectValidation(t *testing.T) {
	p := rte.MustBuild(testSystem(), rte.Options{})
	m := NewMonitor(p, MonitorOptions{})
	if err := m.Protect("Nope", Policy{}); err == nil {
		t.Fatal("unknown component accepted")
	}
	if err := m.Protect("Sensor", Policy{Runnable: "nope"}); err == nil {
		t.Fatal("unknown runnable accepted")
	}
	if err := m.Protect("Sensor", Policy{}); err != nil {
		t.Fatal(err)
	}
	if err := m.Protect("Sensor", Policy{}); err == nil {
		t.Fatal("double protect accepted")
	}
	if err := m.SuperviseFlow("Ctrl", "step", FlowGraph{}); err == nil {
		t.Fatal("flow supervision on unprotected component accepted")
	}
}

// With several bad keep-sets, NewDegradation must report the same error
// on every run: the lowest bad level wins, not map iteration order.
func TestNewDegradationDeterministicError(t *testing.T) {
	first := ""
	for i := 0; i < 10; i++ {
		p := rte.MustBuild(testSystem(), rte.Options{})
		_, err := NewDegradation(p, map[Level][]string{
			Degraded: {"Ghost.a"},
			LimpHome: {"Ghost.b"},
			SafeStop: {"Ghost.c"},
		})
		if err == nil {
			t.Fatal("unknown runnables accepted")
		}
		if i == 0 {
			first = err.Error()
			if !strings.Contains(first, "Ghost.a") {
				t.Fatalf("error %q does not name Ghost.a, the lowest bad level's runnable", first)
			}
			continue
		}
		if err.Error() != first {
			t.Fatalf("run %d reported %q, first run reported %q", i, err.Error(), first)
		}
	}
}
