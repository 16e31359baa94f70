package realm

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// TestQueueLaneOrderMatchesSort drives the event queue with randomized
// push/pop schedules and checks every pop against a reference that sorts
// all pending items by (at, seq). Times are drawn from a narrow window so
// pushes at the current time (the lane) routinely land while the heap
// still holds items at that same time with lower seq; weak items are mixed
// in, as fault generators push them.
func TestQueueLaneOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		var q eventQueue
		var ref []queued
		var now Time
		var seq int64
		pushes := 0
		for step := 0; step < 400; step++ {
			if len(ref) == 0 || rng.Intn(3) != 0 {
				at := now
				if rng.Intn(2) == 0 {
					at += Time(rng.Intn(4)) // future times collide often
				}
				seq++
				it := queued{at: at, seq: seq, weak: rng.Intn(5) == 0}
				q.push(it, now)
				ref = append(ref, it)
				pushes++
				continue
			}
			sort.Slice(ref, func(i, j int) bool { return less(&ref[i], &ref[j]) })
			got := q.pop()
			if got.at != ref[0].at || got.seq != ref[0].seq || got.weak != ref[0].weak {
				t.Fatalf("iter %d step %d: popped (at %d, seq %d, weak %v), want (at %d, seq %d, weak %v)",
					iter, step, got.at, got.seq, got.weak, ref[0].at, ref[0].seq, ref[0].weak)
			}
			if got.at < now {
				t.Fatalf("iter %d step %d: time ran backwards (%d < %d)", iter, step, got.at, now)
			}
			now = got.at
			ref = ref[1:]
		}
		if pushes == 0 {
			t.Fatal("no pushes generated")
		}
	}
}

// TestLaneAndHeapSameTimeOrder pins the case the lane comparison exists
// for: items scheduled earlier for time T sit in the heap when the clock
// reaches T, and items pushed at T join the lane behind them.
func TestLaneAndHeapSameTimeOrder(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	var order []string
	s.After(10, func() {
		order = append(order, "a")
		s.After(0, func() { order = append(order, "c") }) // lane, after b
	})
	s.After(10, func() { order = append(order, "b") }) // heap, same time, lower seq than c
	s.After(11, func() { order = append(order, "d") })
	s.MustRun()
	if want := []string{"a", "b", "c", "d"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

// TestKillBeforeFirstRun: a thread killed before it ever ran never runs its
// body, leaves no live thread behind, and costs exactly its two queued
// resumes.
func TestKillBeforeFirstRun(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	ran := false
	th := s.Spawn("victim", s.Node(0).Proc(0), func(*Thread) { ran = true })
	s.Kill(th)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Error("killed thread ran its body")
	}
	if len(s.liveThreads) != 0 || !th.dead {
		t.Errorf("killed thread not retired: live=%d dead=%v", len(s.liveThreads), th.dead)
	}
	if ev := s.Stats().Events; ev != 2 {
		t.Errorf("events = %d, want 2 (spawn and kill resumes)", ev)
	}
}

// TestKillFromCallbackOnOwnGoroutine: the only thread parks in Elapse, so
// its own goroutine runs the event loop and thus the callback that kills
// it. The kill must unwind the thread at its next scheduling point (its
// user-level recover sees the kill sentinel), and the simulation must
// finish on schedule with the thread retired.
func TestKillFromCallbackOnOwnGoroutine(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	steps := 0
	sawKill := false
	var th *Thread
	th = s.Spawn("looper", s.Node(0).Proc(0), func(t *Thread) {
		defer func() {
			r := recover()
			sawKill = IsThreadKilled(r)
			if r != nil {
				panic(r) // re-panic the sentinel, as engines do
			}
		}()
		for i := 0; i < 100; i++ {
			t.Elapse(10)
			steps++
		}
	})
	s.After(35, func() { s.Kill(th) })
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if steps != 3 || !sawKill {
		t.Errorf("steps = %d (want 3), kill seen = %v", steps, sawKill)
	}
	if end != 40 {
		t.Errorf("end = %d, want 40 (the pending Elapse still completes)", end)
	}
	if !th.dead || len(s.liveThreads) != 0 {
		t.Error("killed thread not retired")
	}
}

// TestLastThreadFinishesAsQueueDrains: the final item of the run is a
// thread finishing on its own goroutine; control must come back to Run
// with the right end time, and the Sim must be runnable again afterwards.
func TestLastThreadFinishesAsQueueDrains(t *testing.T) {
	s := MustNewSim(smallConfig(2))
	var done []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("t%d", i)
		s.Spawn(name, s.Node(i%2).Proc(i/2), func(th *Thread) {
			th.Elapse(Time(10 * (i + 1)))
			done = append(done, name)
		})
	}
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if end != 30 || !reflect.DeepEqual(done, []string{"t0", "t1", "t2"}) {
		t.Fatalf("end = %d, done = %v", end, done)
	}
	s.Spawn("again", s.Node(0).Proc(0), func(th *Thread) { th.Elapse(5) })
	if end, err := s.Run(); err != nil || end != 35 {
		t.Fatalf("second Run = %d, %v; want 35, nil", end, err)
	}
}

// TestDeadlockNamesExactlyBlocked: threads blocked on never-triggered
// events are reported in spawn order with their events; finished and
// killed threads are not. The queue drains on a thread goroutine, so this
// also covers the hand-back to Run. Triggering the events afterwards lets
// a second Run resume the parked threads.
func TestDeadlockNamesExactlyBlocked(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	e1, e2, e3 := s.NewUserEvent(), s.NewUserEvent(), s.NewUserEvent()
	resumed := 0
	s.Spawn("a", s.Node(0).Proc(0), func(th *Thread) { th.WaitEvent(e1); resumed++ })
	s.Spawn("finishes", s.Node(0).Proc(1), func(th *Thread) { th.Elapse(7) })
	killed := s.Spawn("killed", s.Node(0).Proc(0), func(th *Thread) { th.WaitEvent(e3) })
	s.Spawn("b", s.Node(0).Proc(0), func(th *Thread) { th.Elapse(3); th.WaitEvent(e2); resumed++ })
	s.After(5, func() { s.Kill(killed) })
	_, err := s.Run()
	var derr *DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("want *DeadlockError, got %v", err)
	}
	want := []BlockedThread{{Name: "a", Waiting: e1}, {Name: "b", Waiting: e2}}
	if !reflect.DeepEqual(derr.Blocked, want) || derr.Now != 7 {
		t.Fatalf("deadlock = %+v at %d, want %+v at 7", derr.Blocked, derr.Now, want)
	}
	s.Trigger(e1)
	s.Trigger(e2)
	if _, err := s.Run(); err != nil || resumed != 2 {
		t.Fatalf("resume after deadlock: err = %v, resumed = %d", err, resumed)
	}
}

// TestThreadBodyPanicReraisedFromRun: a panic escaping a thread body (not
// the kill sentinel) is re-raised from Run on the caller's goroutine, with
// its original value, instead of killing the process from the thread's.
func TestThreadBodyPanicReraisedFromRun(t *testing.T) {
	bug := errors.New("body bug")
	s := MustNewSim(smallConfig(1))
	s.Spawn("other", s.Node(0).Proc(1), func(th *Thread) { th.Elapse(100) })
	s.Spawn("buggy", s.Node(0).Proc(0), func(th *Thread) {
		th.Elapse(10)
		panic(bug)
	})
	if r := runRecover(s); r != bug {
		t.Fatalf("Run re-raised %v, want %v", r, bug)
	}
}

// TestCallbackPanicOnThreadGoroutineReraisedFromRun: the thread parks
// first, so its goroutine runs the event loop when the callback panics.
// Run must still re-raise the panic on its caller's goroutine — the
// contract the spmd and rt engines' kernel-panic-to-error conversion
// relies on.
func TestCallbackPanicOnThreadGoroutineReraisedFromRun(t *testing.T) {
	s := MustNewSim(smallConfig(1))
	s.Spawn("parker", s.Node(0).Proc(0), func(th *Thread) { th.Elapse(10) })
	s.After(5, func() { panic("kernel bug") })
	if r := runRecover(s); r != "kernel bug" {
		t.Fatalf("Run re-raised %v, want \"kernel bug\"", r)
	}
}

func runRecover(s *Sim) (r interface{}) {
	defer func() { r = recover() }()
	s.Run()
	return nil
}
