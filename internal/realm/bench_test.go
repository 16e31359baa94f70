package realm

import (
	"fmt"
	"testing"
)

// TestScheduleTriggerAllocs pins the allocation behavior of the DES hot
// path: once the waiter pool and the pre-sized event table are warm,
// creating a user event, registering a continuation, scheduling a timer,
// and triggering must not allocate. This is the path every simulated task
// launch and copy goes through millions of times per weak-scaling sweep; a
// regression here (e.g. reintroducing per-waiter slice allocations or
// interface boxing in the event queue) shows up as a nonzero average.
func TestScheduleTriggerAllocs(t *testing.T) {
	s := MustNewSim(DefaultConfig(1))
	sink := 0
	fn := func() { sink++ }

	// Warm the waiter pool with one trip through the path.
	e0 := s.NewUserEvent()
	s.OnTrigger(e0, fn)
	s.Trigger(e0)

	avg := testing.AllocsPerRun(200, func() {
		e := s.NewUserEvent()
		s.OnTrigger(e, fn)
		s.After(5, fn)
		s.Trigger(e)
	})
	if avg > 0 {
		t.Errorf("schedule/trigger path allocates %.2f objects per op, want 0", avg)
	}
	if sink == 0 {
		t.Fatal("continuations never ran")
	}

	// Across page boundaries: the event table grows by one fixed page per
	// 4096 events, so a run of 4096 trips (draining the timers each time)
	// crosses exactly one boundary and may allocate exactly that page.
	avg = testing.AllocsPerRun(6, func() {
		for i := 0; i < 1<<evPageBits; i++ {
			e := s.NewUserEvent()
			s.OnTrigger(e, fn)
			s.After(5, fn)
			s.Trigger(e)
		}
		s.MustRun()
	})
	if avg > 1 {
		t.Errorf("4096 schedule/trigger trips allocate %.2f objects, want at most 1 (one event page)", avg)
	}
}

// BenchmarkSimEventThroughput measures raw DES event throughput on the
// pattern the runtime engines generate: user events merged pairwise, timer
// callbacks triggering them, and a continuation chaining the next round.
// Run with -benchmem to watch the per-event allocation count.
func BenchmarkSimEventThroughput(b *testing.B) {
	b.ReportAllocs()
	const chunk = 1 << 16 // bound the event table: one Sim per chunk
	done := 0
	for done < b.N {
		n := b.N - done
		if n > chunk {
			n = chunk
		}
		done += n
		s := MustNewSim(DefaultConfig(1))
		left := n
		var step func()
		step = func() {
			if left == 0 {
				return
			}
			left--
			a := s.NewUserEvent()
			c := s.NewUserEvent()
			s.OnTrigger(s.Merge(a, c), step)
			s.After(3, func() { s.Trigger(a) })
			s.After(7, func() { s.Trigger(c) })
		}
		step()
		s.MustRun()
	}
}

// BenchmarkThreadSwitch measures the cost of one DES thread switch: N
// threads on N processors each loop on Elapse, so every Elapse parks the
// calling thread and the next event resumes another one. The reported
// ns/op is per switch (one Elapse of one thread).
func BenchmarkThreadSwitch(b *testing.B) {
	for _, n := range []int{1, 4, 64} {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			s := MustNewSim(Config{Nodes: 1, CoresPerNode: n, NetBandwidth: 1, LocalBW: 1})
			per := b.N / n
			if per == 0 {
				per = 1
			}
			for i := 0; i < n; i++ {
				s.Spawn(fmt.Sprintf("t%d", i), s.Node(0).Proc(i), func(th *Thread) {
					for k := 0; k < per; k++ {
						th.Elapse(1)
					}
				})
			}
			b.ResetTimer()
			s.MustRun()
		})
	}
}
