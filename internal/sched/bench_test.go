package sched

import (
	"fmt"
	"testing"

	"autorte/internal/sim"
)

func randomSet(n int, seed uint64) []Task {
	r := sim.NewRand(seed)
	periods := []sim.Duration{sim.MS(5), sim.MS(10), sim.MS(20), sim.MS(50), sim.MS(100)}
	tasks := make([]Task, n)
	for i := range tasks {
		T := periods[r.Intn(len(periods))]
		hi := T / sim.Duration(2*n)
		if hi < sim.US(20) {
			hi = sim.US(20)
		}
		tasks[i] = Task{
			Name: fmt.Sprintf("t%d", i),
			C:    r.Range(sim.US(10), hi),
			T:    T, Priority: n - i,
		}
	}
	return tasks
}

// BenchmarkAudsley measures optimal priority assignment (quadratic in the
// task count, each step an RTA).
func BenchmarkAudsley(b *testing.B) {
	tasks := randomSet(20, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := AssignAudsley(tasks); err != nil {
			b.Fatal(err)
		}
	}
}
