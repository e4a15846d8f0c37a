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

// TestScheduleReusesFiredEvents: once the free list is warm, the
// Schedule→fire cycle must not allocate at all.
func TestScheduleReusesFiredEvents(t *testing.T) {
	e := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(Duration(i), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		e.Schedule(1, fn)
		e.Run()
	})
	if allocs > 0 {
		t.Fatalf("Schedule allocates %v objects/op after warmup, want 0", allocs)
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
