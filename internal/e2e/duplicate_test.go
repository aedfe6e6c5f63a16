package e2e

import (
	"strings"
	"testing"

	"autorte/internal/can"
	"autorte/internal/sched"
	"autorte/internal/sim"
)

// A task set accidentally containing the target twice must be rejected:
// silently adding the upstream jitter to both copies double-counts
// interference and the reported WCRT depends on which copy wins.
func TestTaskStageRejectsDuplicateTarget(t *testing.T) {
	st := &TaskStage{
		Name: "stage",
		Tasks: []sched.Task{
			{Name: "dup", C: sim.MS(1), T: sim.MS(10), Priority: 2},
			{Name: "dup", C: sim.MS(1), T: sim.MS(10), Priority: 1},
		},
		Target: "dup",
	}
	_, err := st.Bound(sim.MS(1))
	if err == nil {
		t.Fatal("duplicate target accepted")
	}
	if !strings.Contains(err.Error(), "appears 2 times") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestTaskStageSingleTargetStillWorks(t *testing.T) {
	st := &TaskStage{
		Name: "stage",
		Tasks: []sched.Task{
			{Name: "hp", C: sim.MS(1), T: sim.MS(5), Priority: 2},
			{Name: "tgt", C: sim.MS(1), T: sim.MS(10), Priority: 1},
		},
		Target: "tgt",
	}
	b, err := st.Bound(0)
	if err != nil {
		t.Fatal(err)
	}
	if b <= 0 {
		t.Fatalf("bound = %v", b)
	}
}

func TestCANStageRejectsDuplicateTarget(t *testing.T) {
	st := &CANStage{
		Name: "bus",
		Cfg:  can.Config{BitRate: 500_000},
		Messages: []*can.Message{
			{Name: "dup", ID: 0x100, DLC: 4, Period: sim.MS(10)},
			{Name: "dup", ID: 0x101, DLC: 4, Period: sim.MS(10)},
		},
		Target: "dup",
	}
	_, err := st.Bound(0)
	if err == nil {
		t.Fatal("duplicate target accepted")
	}
	if !strings.Contains(err.Error(), "appears 2 times") {
		t.Fatalf("unexpected error: %v", err)
	}
}
