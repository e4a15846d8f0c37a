package sim

import (
	"sort"
	"testing"
	"testing/quick"

	"rpcvalet/internal/rng"
)

func TestUnits(t *testing.T) {
	if Nanosecond != 1000*Picosecond {
		t.Fatal("nanosecond constant wrong")
	}
	if Microsecond != 1000*Nanosecond || Millisecond != 1000*Microsecond || Second != 1000*Millisecond {
		t.Fatal("unit ladder wrong")
	}
	if got := FromNanos(1.5); got != 1500*Picosecond {
		t.Fatalf("FromNanos(1.5) = %d, want 1500", got)
	}
	if got := FromNanos(-3); got != 0 {
		t.Fatalf("FromNanos(-3) = %d, want 0", got)
	}
	if got := FromMicros(2); got != 2*Microsecond {
		t.Fatalf("FromMicros(2) = %d", got)
	}
	if d := (1500 * Picosecond).Nanos(); d != 1.5 {
		t.Fatalf("Nanos() = %v", d)
	}
	if d := (2500 * Nanosecond).Micros(); d != 2.5 {
		t.Fatalf("Micros() = %v", d)
	}
	if s := (2 * Second).Seconds(); s != 2 {
		t.Fatalf("Seconds() = %v", s)
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(0).Add(5 * Nanosecond)
	if t0 != Time(5000) {
		t.Fatalf("Add: %d", t0)
	}
	if d := t0.Sub(Time(1000)); d != 4*Nanosecond {
		t.Fatalf("Sub: %d", d)
	}
	if t0.Nanos() != 5 {
		t.Fatalf("Nanos: %v", t0.Nanos())
	}
	if Time(Second).Seconds() != 1 {
		t.Fatal("Seconds")
	}
	if Time(1500).String() != "1.500ns" {
		t.Fatalf("String: %q", Time(1500).String())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var fired []Time
	delays := []Duration{50, 10, 30, 10, 0, 99, 42}
	for _, d := range delays {
		d := d
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	e.Run()
	if len(fired) != len(delays) {
		t.Fatalf("fired %d events, want %d", len(fired), len(delays))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("events fired out of order: %v", fired)
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var trace []string
	e.Schedule(10, func() {
		trace = append(trace, "a")
		e.Schedule(5, func() { trace = append(trace, "c") })
		e.Schedule(0, func() { trace = append(trace, "b") })
	})
	e.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if i >= len(trace) || trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestZeroDelayFiresAtCurrentTime(t *testing.T) {
	e := New()
	var at Time
	e.Schedule(7*Nanosecond, func() {
		e.Schedule(0, func() { at = e.Now() })
	})
	e.Run()
	if at != Time(7*Nanosecond) {
		t.Fatalf("zero-delay event fired at %v", at)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := New()
	fired := false
	e.Schedule(-5, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("event with negative delay never fired")
	}
	if e.Now() != 0 {
		t.Fatalf("clock advanced to %v", e.Now())
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt in the past did not panic")
		}
	}()
	e.ScheduleAt(5, func() {})
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	if !e.Cancel(ev) {
		t.Fatal("Cancel returned false for a pending event")
	}
	if e.Cancel(ev) {
		t.Fatal("double Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Cancel(nil) {
		t.Fatal("Cancel(nil) returned true")
	}
}

func TestCancelAfterFire(t *testing.T) {
	e := New()
	ev := e.Schedule(1, func() {})
	e.Run()
	if e.Cancel(ev) {
		t.Fatal("Cancel after fire returned true")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := New()
	var fired []int
	var evs []*Event
	for i := 0; i < 20; i++ {
		i := i
		evs = append(evs, e.Schedule(Duration(i)*Nanosecond, func() { fired = append(fired, i) }))
	}
	// Cancel every third event.
	for i := 0; i < 20; i += 3 {
		e.Cancel(evs[i])
	}
	e.Run()
	for _, v := range fired {
		if v%3 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(fired) != 20-7 {
		t.Fatalf("fired %d events, want 13", len(fired))
	}
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Duration(i), func() {
			count++
			if count == 5 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 5 {
		t.Fatalf("ran %d events after Stop, want 5", count)
	}
	if e.Pending() != 5 {
		t.Fatalf("pending = %d, want 5", e.Pending())
	}
	e.Run() // resumes
	if count != 10 {
		t.Fatalf("resume ran to %d, want 10", count)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, d := range []Duration{5, 10, 15, 20} {
		e.Schedule(d, func() { fired = append(fired, e.Now()) })
	}
	e.RunUntil(10)
	if len(fired) != 2 {
		t.Fatalf("RunUntil(10) fired %d events, want 2 (inclusive deadline)", len(fired))
	}
	if e.Now() != 10 {
		t.Fatalf("clock = %v, want 10", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("total fired = %d, want 4", len(fired))
	}
	if e.Now() != 100 {
		t.Fatalf("clock advanced to %v, want 100", e.Now())
	}
}

func TestRunFor(t *testing.T) {
	e := New()
	e.Schedule(5, func() {})
	e.RunFor(3)
	if e.Now() != 3 {
		t.Fatalf("clock = %v, want 3", e.Now())
	}
	e.RunFor(3)
	if e.Now() != 6 {
		t.Fatalf("clock = %v, want 6", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatal("event at t=5 did not fire")
	}
}

func TestFiredCounter(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.Schedule(Duration(i), func() {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", e.Fired())
	}
}

// Property: regardless of the (possibly duplicated) set of delays scheduled,
// execution visits them in sorted order and executes them all.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%200) + 1
		r := rng.New(seed)
		e := New()
		delays := make([]Duration, n)
		var fired []Time
		for i := range delays {
			delays[i] = Duration(r.IntN(1000))
			e.Schedule(delays[i], func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != n {
			return false
		}
		sorted := append([]Duration(nil), delays...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i, ft := range fired {
			if ft != Time(sorted[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestServerFIFO(t *testing.T) {
	e := New()
	s := NewServer(e)
	var done []int
	var ends []Time
	for i := 0; i < 5; i++ {
		i := i
		end := s.Submit(10*Nanosecond, func() {
			done = append(done, i)
			ends = append(ends, e.Now())
		})
		if want := Time(Duration(i+1) * 10 * Nanosecond); end != want {
			t.Fatalf("job %d completion = %v, want %v", i, end, want)
		}
	}
	e.Run()
	for i, v := range done {
		if v != i {
			t.Fatalf("completions out of order: %v", done)
		}
	}
	for i, at := range ends {
		if want := Time(Duration(i+1) * 10 * Nanosecond); at != want {
			t.Fatalf("job %d completed at %v, want %v", i, at, want)
		}
	}
}

func TestServerIdleGap(t *testing.T) {
	e := New()
	s := NewServer(e)
	s.Submit(5*Nanosecond, nil)
	e.Run()
	// The server went idle at t=5ns; a job submitted at t=5ns starts now.
	end := s.Submit(3*Nanosecond, nil)
	if end != Time(8*Nanosecond) {
		t.Fatalf("end = %v, want 8ns", end)
	}
}

func TestServerDelay(t *testing.T) {
	e := New()
	s := NewServer(e)
	if s.Delay() != 0 {
		t.Fatal("idle server reports nonzero delay")
	}
	s.Submit(10*Nanosecond, nil)
	if s.Delay() != 10*Nanosecond {
		t.Fatalf("delay = %v, want 10ns", s.Delay())
	}
	s.Submit(5*Nanosecond, nil)
	if s.Delay() != 15*Nanosecond {
		t.Fatalf("delay = %v, want 15ns", s.Delay())
	}
}

func TestServerNegativeServiceClamped(t *testing.T) {
	e := New()
	s := NewServer(e)
	end := s.Submit(-4, nil)
	if end != 0 {
		t.Fatalf("end = %v, want 0", end)
	}
}

func TestServerUtilization(t *testing.T) {
	e := New()
	s := NewServer(e)
	if s.Utilization() != 0 {
		t.Fatal("utilization before time advances should be 0")
	}
	s.Submit(10*Nanosecond, nil)
	e.RunUntil(Time(20 * Nanosecond)) // busy 10ns, then idle 10ns
	u := s.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
	if s.Jobs() != 1 {
		t.Fatalf("jobs = %d", s.Jobs())
	}
	if s.BusyTime() != 10*Nanosecond {
		t.Fatalf("busy = %v", s.BusyTime())
	}
}

// Property: a FIFO server conserves work — total completion time of the last
// job equals max over arrival ordering of the standard Lindley recursion.
func TestPropertyServerLindley(t *testing.T) {
	f := func(seed uint64, n8 uint8) bool {
		n := int(n8%50) + 1
		r := rng.New(seed)
		e := New()
		s := NewServer(e)
		// Jobs arrive at random times with random service; drive arrivals
		// via scheduled events so Submit sees the right "now".
		type job struct{ arrive, service Duration }
		jobs := make([]job, n)
		for i := range jobs {
			jobs[i] = job{Duration(r.IntN(500)), Duration(r.IntN(100))}
		}
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].arrive < jobs[j].arrive })
		ends := make([]Time, n)
		for i, j := range jobs {
			i, j := i, j
			e.Schedule(j.arrive, func() {
				ends[i] = s.Submit(j.service, nil)
			})
		}
		e.Run()
		// Lindley: start_i = max(arrive_i, end_{i-1}).
		var prevEnd Time
		for i, j := range jobs {
			start := Time(j.arrive)
			if prevEnd > start {
				start = prevEnd
			}
			want := start.Add(j.service)
			if ends[i] != want {
				return false
			}
			prevEnd = want
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkEngineSchedule measures the Schedule→fire cycle in steady state;
// run with -benchmem to see the free list holding allocs/op at zero.
func BenchmarkEngineSchedule(b *testing.B) {
	e := New()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		e.Schedule(Duration(i), fn)
	}
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(i&1023), fn)
		if i&1023 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := New()
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Duration(r.IntN(1000)), func() {})
		if i%1024 == 0 {
			e.Run()
		}
	}
	e.Run()
}

func TestEventTimeAccessor(t *testing.T) {
	e := New()
	ev := e.Schedule(7*Nanosecond, func() {})
	if ev.Time() != Time(7*Nanosecond) {
		t.Fatalf("Event.Time() = %v", ev.Time())
	}
}

// Property: interleaved Schedule/Cancel/Step sequences never violate clock
// monotonicity and never execute a cancelled event. Because fired Event
// structs are recycled by later Schedule calls, the test tracks each
// struct's *current occupant*: a successful Cancel always belongs to the
// logical event most recently scheduled into that struct.
func TestPropertyCancelNeverFires(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		e := New()
		fired := map[int]bool{}
		cancelled := map[int]bool{}
		occupant := map[*Event]int{}
		var evs []*Event
		id := 0
		for step := 0; step < 300; step++ {
			switch r.IntN(3) {
			case 0:
				myID := id
				id++
				ev := e.Schedule(Duration(r.IntN(100)), func() { fired[myID] = true })
				occupant[ev] = myID
				evs = append(evs, ev)
			case 1:
				if len(evs) > 0 {
					ev := evs[r.IntN(len(evs))]
					if e.Cancel(ev) {
						cancelled[occupant[ev]] = true
					}
				}
			case 2:
				before := e.Now()
				e.Step()
				if e.Now() < before {
					return false
				}
			}
		}
		e.Run()
		for i := range cancelled {
			if fired[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleReusesFiredEvents: once the free list and the lanes are warm,
// the schedule→fire cycle must not allocate at all, on the heap or in a
// lane.
func TestScheduleReusesFiredEvents(t *testing.T) {
	fn, afn := func() {}, func(any) {}
	for _, c := range []struct {
		name     string
		schedule func(e *Engine, d Duration)
	}{
		{"Schedule", func(e *Engine, d Duration) { e.Schedule(d, fn) }},
		{"ScheduleArgFixed", func(e *Engine, d Duration) { e.ScheduleArgFixed(d, afn, nil) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := New()
			for i := 0; i < 64; i++ {
				c.schedule(e, Duration(i))
			}
			e.Run()
			allocs := testing.AllocsPerRun(200, func() {
				c.schedule(e, 1)
				e.Run()
			})
			if allocs > 0 {
				t.Fatalf("%s allocates %v objects/op after warmup, want 0", c.name, allocs)
			}
		})
	}
}

// TestPropertyLaneOrdering: random interleavings of every scheduling call,
// Cancel, Stop, Step, Run and RunUntil fire exactly the uncancelled events,
// each at its time, in (time, seq) order — the order a single heap gives.
// Fixed delays include zero and outnumber the lanes, so the heap fallback
// runs too. Callbacks schedule follow-ups, and those fired by Run stop it:
// RunUntil moves the clock to its deadline even when stopped early, so a
// Stop there would let later events fire in the past.
func TestPropertyLaneOrdering(t *testing.T) {
	const fixedDelays = maxLanes + 8
	overflowed := false
	f := func(seed uint64) bool {
		r := rng.New(seed)
		e := New()
		type key struct {
			at  Time
			seq int
		}
		var scheduled, fired []key
		done, cancelled := map[int]bool{}, map[int]bool{}
		// Heap events' handles. A handle is only cancelled while its event
		// is pending: after that the struct may hold a recycled event.
		type handle struct {
			ev *Event
			id int
		}
		var handles []handle
		usedFixed := map[Duration]bool{}
		ok, inRun := true, false

		var schedule func()
		// run returns the callback body of event id.
		run := func(id int) {
			if e.Now() != scheduled[id].at || cancelled[id] {
				ok = false
			}
			fired = append(fired, scheduled[id])
			done[id] = true
			switch r.IntN(8) {
			case 0, 1:
				schedule()
			case 2:
				if inRun {
					e.Stop()
				}
			}
		}
		afn := func(arg any) { run(arg.(int)) }
		schedule = func() {
			id := len(scheduled)
			d := Duration(r.IntN(60))
			var ev *Event
			switch r.IntN(5) {
			case 0:
				ev = e.Schedule(d, func() { run(id) })
			case 1:
				ev = e.ScheduleArg(d, afn, id)
			case 2:
				ev = e.ScheduleAt(e.Now().Add(d), func() { run(id) })
			default:
				d = Duration(r.IntN(fixedDelays)) * 3
				usedFixed[d] = true
				e.ScheduleArgFixed(d, afn, id)
			}
			scheduled = append(scheduled, key{e.Now().Add(d), id})
			if ev != nil {
				handles = append(handles, handle{ev, id})
			}
		}
		for step := 0; step < 400 && ok; step++ {
			switch r.IntN(7) {
			case 0, 1:
				schedule()
			case 2:
				if len(handles) > 0 {
					h := handles[r.IntN(len(handles))]
					if !done[h.id] && !cancelled[h.id] {
						ok = ok && e.Cancel(h.ev) && !e.Cancel(h.ev)
						cancelled[h.id] = true
					}
				}
			case 3:
				e.Step()
			case 4:
				deadline := e.Now().Add(Duration(r.IntN(40)))
				e.RunUntil(deadline)
				if e.Now() < deadline {
					ok = false
				}
			case 5:
				inRun = true
				e.Run()
				inRun = false
			case 6:
				if e.Pending() != len(scheduled)-len(fired)-len(cancelled) {
					ok = false
				}
			}
		}
		inRun = true
		for e.Pending() > 0 {
			e.Run()
		}
		if len(usedFixed) > maxLanes && len(e.lanes) == maxLanes {
			overflowed = true
		}
		var want []key
		for _, k := range scheduled {
			if !cancelled[k.seq] {
				want = append(want, k)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			return want[i].at < want[j].at || (want[i].at == want[j].at && want[i].seq < want[j].seq)
		})
		if !ok || len(fired) != len(want) || e.Fired() != uint64(len(fired)) {
			return false
		}
		for i := range want {
			if fired[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	if !overflowed {
		t.Fatal("no run used more fixed delays than there are lanes")
	}
}

// BenchmarkEngineFixedDelay measures ns per event with about 40k events
// pending, as on a 1000-node cluster's engine: each fired event schedules
// one successor, 80% of them with one of 16 fixed delays and the rest with
// a random one. "lanes" schedules the fixed delays with ScheduleArgFixed,
// "heap" sends the same events through ScheduleArg. Run with -benchmem:
// both paths hold allocs/op at zero.
func BenchmarkEngineFixedDelay(b *testing.B) {
	const pending = 40000
	for _, lanes := range []bool{true, false} {
		name := "heap"
		if lanes {
			name = "lanes"
		}
		b.Run(name, func(b *testing.B) {
			e := New()
			r := rng.New(1)
			var fixed [16]Duration
			for i := range fixed {
				fixed[i] = Duration(5+40*i) * Nanosecond
			}
			var fn func(any)
			fn = func(any) {
				switch {
				case r.IntN(5) == 0:
					e.ScheduleArg(Duration(r.IntN(int(Microsecond))), fn, nil)
				case lanes:
					e.ScheduleArgFixed(fixed[r.IntN(len(fixed))], fn, nil)
				default:
					e.ScheduleArg(fixed[r.IntN(len(fixed))], fn, nil)
				}
			}
			for i := 0; i < pending; i++ {
				fn(nil)
			}
			for i := 0; i < 4*pending; i++ {
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}

// TestParseDuration: every unit converts to the nearest picosecond exactly,
// past the 2^53 ps a float64 can count, and non-finite, negative or
// out-of-range spans are errors.
func TestParseDuration(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Duration
	}{
		{"500", 500 * Nanosecond},
		{"500ns", 500 * Nanosecond},
		{"0.1us", 100 * Nanosecond},
		{"50µs", 50 * Microsecond},
		{"1.5ms", 1500 * Microsecond},
		{"2s", 2 * Second},
		{" 0.000001us ", Picosecond},
		{"277000000000.111us", 277000000000111000},
		{"9223372.036854775807s", 1<<63 - 1},
	} {
		if got, err := ParseDuration(c.in); err != nil || got != c.want {
			t.Errorf("ParseDuration(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"", "us", "1h", "-1us", "NaN", "Inf", "infinity", "+Infus", "1e400s", "9223372.036854775808s", "0e0100000000000000000000ns"} {
		if d, err := ParseDuration(bad); err == nil {
			t.Errorf("ParseDuration(%q) = %d, accepted", bad, d)
		}
	}
}
