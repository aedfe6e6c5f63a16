package sim

import "testing"

// BenchmarkKernelThroughput measures raw event dispatch: self-rescheduling
// timer chains, the dominant pattern in every substrate. It reports the
// cost per executed event (ns/event).
func BenchmarkKernelThroughput(b *testing.B) {
	k := NewKernel()
	var tick func()
	count := 0
	tick = func() {
		count++
		if count < b.N {
			k.After(100, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.After(0, tick)
	k.Run(Infinity)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(k.Executed()), "ns/event")
}

// BenchmarkKernelContendedQueue measures heap behaviour with many pending
// events (64 concurrent timer chains).
func BenchmarkKernelContendedQueue(b *testing.B) {
	k := NewKernel()
	remaining := b.N
	var mk func(phase Duration) func()
	mk = func(phase Duration) func() {
		var f func()
		f = func() {
			remaining--
			if remaining > 0 {
				k.After(phase, f)
			}
		}
		return f
	}
	b.ResetTimer()
	for i := 0; i < 64 && i < b.N; i++ {
		k.After(Duration(i), mk(Duration(50+i)))
	}
	k.Run(Infinity)
}

// BenchmarkKernelCancel measures schedule+cancel pairs (budget checkpoints
// are cancelled on every reschedule), reported per pair (ns/event).
func BenchmarkKernelCancel(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.At(Time(i)+1_000_000, fn).Cancel()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
}

// BenchmarkRand measures the SplitMix64 generator.
func BenchmarkRand(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
