package can

import (
	"fmt"
	"testing"

	"autorte/internal/sim"
)

func benchSet(n int) []*Message {
	msgs := make([]*Message, n)
	for i := range msgs {
		msgs[i] = &Message{
			Name: fmt.Sprintf("m%d", i), ID: uint32(i + 1), DLC: 8,
			Period: sim.Duration(5+i) * sim.Millisecond,
		}
	}
	return msgs
}

// BenchmarkBusSimulation measures one virtual second of a 20-message bus
// at ~60% load.
func BenchmarkBusSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel()
		bus := MustNewBus(k, "can0", Config{BitRate: 500_000}, nil)
		for _, m := range benchSet(20) {
			bus.MustAddMessage(m)
		}
		bus.Start()
		k.Run(sim.Second)
	}
}
