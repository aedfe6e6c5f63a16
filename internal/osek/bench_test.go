package osek

import (
	"fmt"
	"testing"

	"autorte/internal/sim"
)

// BenchmarkScheduler measures the cost of simulating one virtual second of
// a 20-task fixed-priority workload (activations, preemptions, completion
// bookkeeping), and reports it per kernel event (ns/event).
func BenchmarkScheduler(b *testing.B) {
	b.ReportAllocs()
	events := uint64(0)
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		cpu := NewCPU(k, "ecu", 1, nil)
		r := sim.NewRand(7)
		for t := 0; t < 20; t++ {
			period := sim.Duration(1+r.Intn(20)) * sim.Millisecond
			cpu.MustAddTask(&Task{
				Name:     fmt.Sprintf("t%d", t),
				Priority: t,
				WCET:     period / 50,
				Period:   period,
			})
		}
		cpu.Start()
		k.Run(sim.Second)
		events += k.Executed()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkSchedulerWithBudgets adds budget enforcement to the same
// workload — the timing-protection overhead ablation.
func BenchmarkSchedulerWithBudgets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		cpu := NewCPU(k, "ecu", 1, nil)
		r := sim.NewRand(7)
		for t := 0; t < 20; t++ {
			period := sim.Duration(1+r.Intn(20)) * sim.Millisecond
			cpu.MustAddTask(&Task{
				Name:     fmt.Sprintf("t%d", t),
				Priority: t,
				WCET:     period / 50,
				Period:   period,
				Budget:   period / 50,
			})
		}
		cpu.Start()
		k.Run(sim.Second)
	}
}
