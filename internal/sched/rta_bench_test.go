package sched_test

import (
	"sort"
	"testing"

	"autorte/internal/sched"
	"autorte/internal/sim"
	"autorte/internal/taskset"
	"autorte/internal/workload"
)

// BenchmarkRTA measures response-time analysis of the scale-1 vehicle's
// task sets (seed 1), one ECU's set per call in ECU name order, as a
// Verify pass analyzes them. ns/task is the unit cost per analyzed task.
func BenchmarkRTA(b *testing.B) {
	sys, err := workload.GenerateVehicle(workload.VehicleSpec{}, sim.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	sets, _ := taskset.Build(sys)
	var ecus []string
	tasks := 0
	for ecu, set := range sets {
		ecus = append(ecus, ecu)
		tasks += len(set)
	}
	sort.Strings(ecus)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ecu := range ecus {
			if _, err := sched.ResponseTimes(sets[ecu]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*tasks), "ns/task")
}
