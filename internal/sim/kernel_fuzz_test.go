package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// fuzzKernel is the part of the kernel API a FuzzKernel program drives,
// implemented over both Kernel and the reference refKernel. Handles are
// indices into the adapter's own handle table.
type fuzzKernel interface {
	at(t Time, fn func()) int
	after(d Duration, fn func()) int
	atPrio(t Time, prio int, fn func()) int
	cancel(h int)
	pending(h int) bool
	every(start Time, step Duration, prio int, fn func(Time)) (cancel func())
	halt()
	run(horizon Time) uint64
	now() Time
	executed() uint64
	queued() int
}

type newAdapter struct {
	k       *Kernel
	handles []Event
}

func (d *newAdapter) keep(e Event) int {
	d.handles = append(d.handles, e)
	return len(d.handles) - 1
}
func (d *newAdapter) at(t Time, fn func()) int               { return d.keep(d.k.At(t, fn)) }
func (d *newAdapter) after(dt Duration, fn func()) int       { return d.keep(d.k.After(dt, fn)) }
func (d *newAdapter) atPrio(t Time, prio int, fn func()) int { return d.keep(d.k.AtPrio(t, prio, fn)) }
func (d *newAdapter) cancel(h int)                           { d.handles[h].Cancel() }
func (d *newAdapter) pending(h int) bool                     { return d.handles[h].Pending() }
func (d *newAdapter) every(s Time, st Duration, p int, fn func(Time)) func() {
	return d.k.Every(s, st, p, fn)
}
func (d *newAdapter) halt()                   { d.k.Halt() }
func (d *newAdapter) run(horizon Time) uint64 { return d.k.Run(horizon) }
func (d *newAdapter) now() Time               { return d.k.Now() }
func (d *newAdapter) executed() uint64        { return d.k.Executed() }
func (d *newAdapter) queued() int             { return d.k.Pending() }

type refAdapter struct {
	k       *refKernel
	handles []*refEvent
}

func (d *refAdapter) at(t Time, fn func()) int         { return d.atPrio(t, 0, fn) }
func (d *refAdapter) after(dt Duration, fn func()) int { return d.atPrio(d.k.now+dt, 0, fn) }
func (d *refAdapter) atPrio(t Time, prio int, fn func()) int {
	d.handles = append(d.handles, d.k.AtPrio(t, prio, fn))
	return len(d.handles) - 1
}
func (d *refAdapter) cancel(h int)       { d.handles[h].Cancel() }
func (d *refAdapter) pending(h int) bool { return d.handles[h].Pending() }
func (d *refAdapter) every(s Time, st Duration, p int, fn func(Time)) func() {
	return d.k.Every(s, st, p, fn)
}
func (d *refAdapter) halt()                   { d.k.halted = true }
func (d *refAdapter) run(horizon Time) uint64 { return d.k.Run(horizon) }
func (d *refAdapter) now() Time               { return d.k.now }
func (d *refAdapter) executed() uint64        { return d.k.events }
func (d *refAdapter) queued() int             { return d.k.Pending() }

// fuzzInput reads a program a byte at a time, yielding zeros once the
// input runs out.
type fuzzInput []byte

func (in *fuzzInput) next(n int) int {
	if len(*in) == 0 {
		return 0
	}
	v := (*in)[0]
	*in = (*in)[1:]
	return int(v) % n
}

// runProgram interprets data as a kernel program: top-level At, AtPrio,
// After, Every, Cancel, grid cancels and bounded Runs, with callbacks
// that log their firing and then schedule, cancel or halt as the input
// says. It returns the transcript: every firing, every Pending query and
// the kernel's Now, Executed and Pending after each Run.
func runProgram(k fuzzKernel, data []byte) []string {
	in := fuzzInput(data)
	var log []string
	var grids []func()
	handles := 0 // handles made so far
	made := func(h int) { handles = h + 1 }
	cancel := func() {
		if handles == 0 {
			return
		}
		h := in.next(handles)
		before := k.pending(h)
		k.cancel(h)
		log = append(log, fmt.Sprintf("cancel %d pending %v->%v", h, before, k.pending(h)))
	}
	budget := 2000 // callbacks that may still act, so a program terminates
	var callback func(id int) func()
	act := func() {
		if budget <= 0 {
			return
		}
		budget--
		switch in.next(8) {
		case 0:
			made(k.after(Duration(in.next(50)), callback(len(log))))
		case 1:
			made(k.atPrio(k.now(), in.next(4)-2, callback(len(log))))
		case 2:
			cancel()
		case 3:
			k.halt()
		case 4:
			if len(grids) > 0 {
				grids[in.next(len(grids))]()
			}
		default:
			// Most callbacks only fire.
		}
	}
	callback = func(id int) func() {
		return func() {
			log = append(log, fmt.Sprintf("fire %d @%d", id, k.now()))
			act()
		}
	}
	for id := 0; len(in) > 0 && id < 200; id++ {
		switch in.next(8) {
		case 0:
			made(k.at(k.now()+Time(in.next(200)), callback(id)))
		case 1:
			made(k.atPrio(k.now()+Time(in.next(200)), in.next(5)-2, callback(id)))
		case 2:
			made(k.after(Duration(in.next(200)), callback(id)))
		case 3:
			if len(grids) == 4 {
				break
			}
			step := Duration(in.next(50) + 10)
			grids = append(grids, k.every(k.now()+Time(in.next(100)), step, in.next(5)-2, func(now Time) {
				log = append(log, fmt.Sprintf("grid %d @%d", id, now))
				act()
			}))
		case 4:
			cancel()
		case 5:
			if len(grids) > 0 {
				grids[in.next(len(grids))]()
			}
		case 6:
			k.halt()
		default:
			n := k.run(k.now() + Time(in.next(100)))
			log = append(log, fmt.Sprintf("run %d now %d executed %d pending %d", n, k.now(), k.executed(), k.queued()))
		}
	}
	n := k.run(k.now() + 200)
	return append(log, fmt.Sprintf("final run %d now %d executed %d pending %d", n, k.now(), k.executed(), k.queued()))
}

// FuzzKernel runs random programs of At/AtPrio/After/Every/Cancel/Halt/
// Run, including callbacks that schedule and cancel, on Kernel and on
// the container/heap reference: firing order, Now, Executed and Pending
// must agree after every Run.
func FuzzKernel(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 10, 0, 10, 1, 10, 2, 7, 50, 4, 0, 7, 255})
	f.Add([]byte{3, 4, 0, 0, 7, 100, 5, 0, 7, 100})
	f.Add([]byte{0, 5, 0, 0, 5, 0, 0, 5, 1, 0, 5, 2, 7, 20, 4, 1, 7, 20})
	f.Add([]byte{1, 0, 0, 1, 0, 4, 1, 0, 3, 6, 7, 0, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		got := runProgram(&newAdapter{k: NewKernel()}, data)
		want := runProgram(&refAdapter{k: &refKernel{}}, data)
		if !reflect.DeepEqual(got, want) {
			for i := range got {
				if i >= len(want) || got[i] != want[i] {
					t.Fatalf("transcripts diverge at line %d:\nkernel:    %q\nreference: %q", i, got[i:], want[min(i, len(want)):])
				}
			}
			t.Fatalf("reference transcript longer: %q", want[len(got):])
		}
	})
}

// TestStaleHandleCannotCancelRecycledEvent is osek's job deadline: the
// deadline fires, the kernel reuses its event for a later schedule, and
// the job then finishes and cancels its (fired) deadline handle. The
// cancel must be a no-op; the later event must still fire.
func TestStaleHandleCannotCancelRecycledEvent(t *testing.T) {
	k := NewKernel()
	deadline := k.At(10, func() {})
	k.Run(10)
	fired := false
	next := k.At(20, func() { fired = true })
	if next.e != deadline.e {
		t.Fatal("the fired event was not recycled; the test no longer exercises reuse")
	}
	if deadline.Pending() || deadline.At() != 0 {
		t.Fatalf("fired handle reports pending=%v at=%v", deadline.Pending(), deadline.At())
	}
	deadline.Cancel()
	if !next.Pending() || next.At() != 20 {
		t.Fatal("cancelling a stale handle descheduled the event's new use")
	}
	k.Run(Infinity)
	if !fired {
		t.Fatal("the recycled event did not fire")
	}
}

// TestWarmScheduleAllocatesNothing pins the free list: once the kernel
// has an event to reuse, scheduling and firing (or cancelling) it
// allocates nothing.
func TestWarmScheduleAllocatesNothing(t *testing.T) {
	k := NewKernel()
	fn := func() {}
	k.After(1, fn)
	k.Step()
	if a := testing.AllocsPerRun(100, func() {
		k.After(1, fn)
		k.Step()
	}); a != 0 {
		t.Fatalf("warm schedule+fire: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { k.After(1, fn).Cancel() }); a != 0 {
		t.Fatalf("warm schedule+cancel: %v allocs, want 0", a)
	}
}
