package can_test

import (
	"testing"

	"autorte/internal/can"
	"autorte/internal/model"
	"autorte/internal/rte"
	"autorte/internal/sim"
	"autorte/internal/vfb"
	"autorte/internal/workload"
)

// BenchmarkAnalyze measures the CAN response-time analysis of the
// scale-1 vehicle's backbone frame set (seed 1, chain constraints on, as
// the pipeline benchmarks generate it): the periodic frames the RTE
// plans for the bus, analyzed as a Verify pass analyzes them. ns/frame
// is the unit cost per analyzed frame.
func BenchmarkAnalyze(b *testing.B) {
	sys, err := workload.GenerateVehicle(workload.VehicleSpec{ChainConstraints: true}, sim.NewRand(1))
	if err != nil {
		b.Fatal(err)
	}
	routes, err := vfb.Resolve(sys)
	if err != nil {
		b.Fatal(err)
	}
	var plan rte.BusPlan
	for _, bus := range sys.Buses {
		if bus.Kind == model.BusCAN {
			if plan, err = rte.PlanBus(sys, bus, routes, rte.Options{}); err != nil {
				b.Fatal(err)
			}
			break
		}
	}
	msgs := plan.Messages()
	if len(msgs) == 0 {
		b.Fatal("the vehicle plans no periodic CAN frame")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := can.Analyze(plan.CAN, msgs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(msgs)), "ns/frame")
}
