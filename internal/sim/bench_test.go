package sim

import "testing"

func BenchmarkSchedulerScheduleRun(b *testing.B) {
	b.ReportAllocs()
	s := NewScheduler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(Millisecond, func() {})
		s.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

func BenchmarkSchedulerChurn1k(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		s := NewScheduler()
		for j := 0; j < 1000; j++ {
			j := j
			s.At(Time(j)*Microsecond, func() {
				if j%2 == 0 {
					s.After(Millisecond, func() {})
				}
			})
		}
		s.Run()
		events = s.Processed()
	}
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(events)*float64(b.N)/sec, "events/sec")
	}
}

func BenchmarkTimerCancel(b *testing.B) {
	b.ReportAllocs()
	s := NewScheduler()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := s.After(Second, func() {})
		tm.Stop() // reaps automatically once >50% of the queue is dead
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cancels/sec")
}

func BenchmarkRandGeometric(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.Geometric(0.02)
	}
}

func BenchmarkRandGamma(b *testing.B) {
	r := NewRand(1)
	for i := 0; i < b.N; i++ {
		_ = r.Gamma(8, 1)
	}
}

// BenchmarkCancelHeavyDrain measures the pop path after a burst of
// cancellations — the regression benchmark for reaping on pop. Each
// iteration queues a live horizon plus a slightly-smaller cancelled
// block (below the stopSlot threshold), then drains; without the
// pop-path reap the drain re-pops the dead block across the run.
func BenchmarkCancelHeavyDrain(b *testing.B) {
	const n = 1024
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewScheduler()
		for j := 0; j < n; j++ {
			s.At(Time(j), fn)
		}
		var timers [n - 1]Timer
		for j := range timers {
			timers[j] = s.At(Time(10*n+j), fn)
		}
		for _, tm := range timers {
			tm.Stop()
		}
		s.RunUntil(Time(20 * n))
	}
}

// BenchmarkSchedulerFanout models one multicast data packet reaching
// 1,000 receivers per round: 1,000 arg events spread over 41 distinct
// instants 9-49 ms ahead, then 20 ms of dispatch, so one to two rounds
// are queued at a time as in the Figure 12 fan-out.
func BenchmarkSchedulerFanout(b *testing.B) {
	const receivers, instants = 1000, 41
	s := NewScheduler()
	r := NewRand(1)
	fn := func(any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := s.Now()
		for j := 0; j < receivers; j++ {
			s.AtArg(now+9*Millisecond+Time(r.Intn(instants))*Millisecond, fn, nil)
		}
		s.RunUntil(now + 20*Millisecond)
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(max(s.Processed(), 1)), "ns/event")
}
