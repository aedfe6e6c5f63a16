package experiments

import (
	"strconv"
	"strings"
	"testing"

	"autorte/internal/sim"
)

// Reduced-scale configurations keep the test suite fast; the bench harness
// runs the defaults.

func TestE1ShowsIsolationEffect(t *testing.T) {
	cfg := E1Config{
		// 0.4 and 0.6 both exceed B's planned reservation (0.35): any
		// isolating policy must clamp them to identical interference.
		Loads:    []float64{0.4, 0.6},
		Policies: []Policy{PlainFP, DeferrableServerPolicy, TTTable},
		Horizon:  sim.Second,
	}
	tab, err := E1Interference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	// Shape check: under plain FP the victim's worst response grows with
	// load; under the TT table (and saturated server) it does not.
	get := func(policy, load string) []string {
		for _, r := range tab.Rows {
			if r[0] == policy && r[1] == load {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", policy, load)
		return nil
	}
	fpLow, fpHigh := get("fixed-priority", "0.4"), get("fixed-priority", "0.6")
	if fpLow[2] == fpHigh[2] {
		t.Errorf("FP victim response flat across load: %v vs %v", fpLow, fpHigh)
	}
	ttLow, ttHigh := get("tt-table", "0.4"), get("tt-table", "0.6")
	if ttLow[2] != ttHigh[2] {
		t.Errorf("TT victim response moved with load: %v vs %v", ttLow, ttHigh)
	}
}

func TestE2ReportsOverheadAndCapacity(t *testing.T) {
	cfg := E2Config{
		Policies:  []Policy{PlainFP, DeferrableServerPolicy},
		UtilSweep: []float64{0.2, 0.4, 0.6},
		Horizon:   sim.Second,
	}
	tab, err := E2IsolationOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// FP sustains at least as much load as the server (efficiency trade).
	if tab.Rows[0][3] < tab.Rows[1][3] {
		t.Errorf("server sustained more load than FP: %v vs %v", tab.Rows[0], tab.Rows[1])
	}
}

func TestE3BudgetsContainOverrun(t *testing.T) {
	tab, err := E3OverrunContainment(E3Config{Factors: []float64{1, 8}, Horizon: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	// factor 8: without budgets the victims miss; with budgets they don't.
	row := tab.Rows[1]
	if row[1] == "0" {
		t.Errorf("x8 overrun without budgets hurt nobody: %v", row)
	}
	if row[2] != "0" {
		t.Errorf("x8 overrun with budgets still hurt victims: %v", row)
	}
	if row[3] == "0" {
		t.Errorf("no aborts recorded: %v", row)
	}
}

func TestE4FlexRayFlatCANGrowing(t *testing.T) {
	tab, err := E4BusComparison(E4Config{Loads: []float64{0.2, 0.8}, Horizon: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	var canJitter, ttJitter []string
	for _, r := range tab.Rows {
		switch r[0] {
		case "CAN":
			canJitter = append(canJitter, r[4])
		case "FlexRay", "TTEthernet":
			ttJitter = append(ttJitter, r[4])
		}
	}
	if canJitter[0] == canJitter[1] {
		t.Errorf("CAN victim jitter flat across load: %v", canJitter)
	}
	for _, j := range ttJitter {
		if j != "0ns" {
			t.Errorf("time-triggered victim has jitter %v", j)
		}
	}
}

func TestE5AllSound(t *testing.T) {
	tab, err := E5AnalysisVsSim(E5Config{Trials: 6, Seed: 1, Horizon: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if r[2] != "true" {
			t.Fatalf("analysis unsound in %s", r[0])
		}
	}
}

func TestE6FindsSeededViolations(t *testing.T) {
	tab, err := E6Contracts(E6Config{Sizes: []int{4, 16}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if r[3] != r[4] {
			t.Fatalf("seeded %s, found %s", r[3], r[4])
		}
	}
}

func TestE7ConsolidationShape(t *testing.T) {
	tab, err := E7Consolidation(E7Config{Seed: 5, AnnealIters: 500})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// ECU counts must drop federated -> greedy (compare numerically).
	fed, _ := strconv.Atoi(tab.Rows[0][1])
	grd, _ := strconv.Atoi(tab.Rows[1][1])
	if fed <= grd {
		t.Errorf("no ECU reduction: federated %d, greedy %d", fed, grd)
	}
	for _, r := range tab.Rows {
		if r[4] != "true" || r[5] != "true" {
			t.Errorf("architecture %s infeasible or unverified: %v", r[0], r)
		}
	}
}

func TestE8TDMASatisfiesAll(t *testing.T) {
	tab, err := E8NoC(E8Config{Horizon: 50 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		switch r[0] {
		case "tdma":
			for i := 1; i <= 4; i++ {
				if r[i] != "true" {
					t.Errorf("TDMA failed requirement column %d: %v", i, r)
				}
			}
		case "best-effort":
			if r[3] == "true" {
				t.Errorf("best-effort reported non-interfering: %v", r)
			}
		}
	}
}

func TestE9PlannedTableStable(t *testing.T) {
	cfg := DefaultE9()
	cfg.Intruders = []int{1}
	cfg.Horizon = 100 * sim.Millisecond
	tab, err := E9Extensibility(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if r[1] == "planned tt-table" && r[3] != "true" {
			t.Errorf("planned table unstable: %v", r)
		}
		if r[1] == "fixed-priority" && r[3] == "true" {
			t.Errorf("plain FP reported stable: %v", r)
		}
	}
}

func TestE10AllDetected(t *testing.T) {
	tab, err := E10ErrorHandling(DefaultE10())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[1] != "true" {
			t.Errorf("fault %s not detected", r[0])
		}
		if r[3] != "true" {
			t.Errorf("fault %s not delivered to application layer", r[0])
		}
	}
}

func TestE11CampaignShape(t *testing.T) {
	tab, err := E11FaultCampaign(DefaultE11())
	if err != nil {
		t.Fatal(err)
	}
	// 5 classes x 2 injection times + 1 permanent scenario.
	if len(tab.Rows) != 11 {
		t.Fatalf("rows = %d, want 11", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		name, detected, recovered, avail := r[0], r[1], r[5], r[7]
		switch {
		case strings.HasSuffix(name, "/permanent"):
			// The permanent fault climbs the whole ladder and safe-stops.
			if r[4] != "safe-stop/safe-stopped" {
				t.Errorf("%s final state %q, want safe-stop/safe-stopped", name, r[4])
			}
			if recovered != "false" {
				t.Errorf("%s reported recovered", name)
			}
		case strings.HasPrefix(name, "sensor-stuck"):
			// Stuck passes age and range checks: undetected, service intact.
			if detected != "false" || avail != "1" {
				t.Errorf("stuck scenario %s: detected=%s avail=%s", name, detected, avail)
			}
		default:
			if detected != "true" {
				t.Errorf("%s not detected: %v", name, r)
			}
			if recovered != "true" || r[4] != "normal/healthy" {
				t.Errorf("transient %s did not recover to normal: %v", name, r)
			}
		}
	}
}

// sameAcrossWorkers renders the table run builds at 1, 2 and 8 campaign
// workers and fails unless the three renderings are byte-identical: a
// study's result is a function of its inputs, not of the thread schedule.
func sameAcrossWorkers(t *testing.T, run func(workers int) (*Table, error)) {
	t.Helper()
	var want string
	for _, workers := range []int{1, 2, 8} {
		tab, err := run(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var sb strings.Builder
		tab.Render(&sb)
		if workers == 1 {
			want = sb.String()
		} else if got := sb.String(); got != want {
			t.Fatalf("workers=%d renders differently from workers=1:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

func TestE11CampaignDeterministic(t *testing.T) {
	sameAcrossWorkers(t, func(workers int) (*Table, error) {
		cfg := DefaultE11()
		cfg.Workers = workers
		return E11FaultCampaign(cfg)
	})
}

func TestE11LimpHomePhases(t *testing.T) {
	tab, err := E11LimpHome(DefaultE11())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if r[2] != "1" {
			t.Errorf("phase %s: chain availability %s, want 1", r[0], r[2])
		}
	}
	limp := tab.Rows[1]
	if limp[3] != "0" || limp[4] == "0" || limp[5] != "true" {
		t.Errorf("limp-home phase: shed runnables not provably inactive: %v", limp)
	}
	for _, i := range []int{0, 2} {
		if tab.Rows[i][3] == "0" || tab.Rows[i][4] != "0" {
			t.Errorf("phase %s: shed runnables not active: %v", tab.Rows[i][0], tab.Rows[i])
		}
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{Title: "t", Columns: []string{"a", "bb"}, Notes: []string{"n"}}
	tab.Add(1, 2.5)
	var sb strings.Builder
	tab.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== t ==", "a", "bb", "2.5", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestE12CoverageProtectedVsUnprotected(t *testing.T) {
	tab, err := E12DetectionCoverage(DefaultE12())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 12 { // 6 classes x {protected, unprotected}
		t.Fatalf("rows = %d, want 12", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		class, ch, injected, coverage, residual := r[0], r[1], r[2], r[4], r[5]
		if injected == "0" {
			t.Errorf("%s/%s injected nothing", class, ch)
		}
		switch ch {
		case "protected":
			if coverage != "1.000" {
				t.Errorf("%s protected coverage %s, want 1.000", class, coverage)
			}
		case "unprotected":
			if coverage != "0.000" || residual != "1.000" {
				t.Errorf("%s unprotected coverage/residual %s/%s, want 0.000/1.000",
					class, coverage, residual)
			}
			if r[3] != "0" {
				t.Errorf("%s unprotected detected %s faults without means to", class, r[3])
			}
		default:
			t.Errorf("unexpected channel %q", ch)
		}
	}
}

func TestE12OverheadMeasured(t *testing.T) {
	tab, err := E12Overhead(DefaultE12())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	unprot, prot := tab.Rows[0], tab.Rows[1]
	if unprot[1] != "2" || prot[1] != "4" {
		t.Fatalf("pdu bytes %s/%s, want 2/4 (P01 header)", unprot[1], prot[1])
	}
	if unprot[5] != "+0.0%" || !strings.HasPrefix(prot[5], "+") {
		t.Fatalf("bandwidth overhead %s/%s", unprot[5], prot[5])
	}
}

func TestE12RecoveryOutcomes(t *testing.T) {
	tab, err := E12Recovery(DefaultE12())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	corrupt, frloss := tab.Rows[0], tab.Rows[1]
	if corrupt[1] != "true" || corrupt[5] != "safe-stop/safe-stopped" {
		t.Fatalf("sustained corruption did not climb the ladder: %v", corrupt)
	}
	if frloss[1] != "true" || frloss[4] != "2" || frloss[6] != "true" {
		t.Fatalf("flexray loss did not fail over and recover: %v", frloss)
	}
}

func TestE12Deterministic(t *testing.T) {
	render := func() string {
		tab, err := E12DetectionCoverage(DefaultE12())
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		tab.Render(&sb)
		return sb.String()
	}
	if a, b := render(), render(); a != b {
		t.Fatalf("coverage table not deterministic:\n%s\nvs\n%s", a, b)
	}
}
