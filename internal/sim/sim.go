// Package sim implements the discrete-event simulation engine that underlies
// every experiment in this repository.
//
// All latencies reported by the reproduction are measured in the engine's
// virtual clock, never in wall-clock time, so the Go runtime (GC pauses,
// scheduler jitter) cannot contaminate µs-scale results. Time is kept in
// integer picoseconds: fine enough to express fractions of a 2 GHz cycle
// (500 ps) exactly, and wide enough (int64) for about 100 days of simulated
// time.
//
// The engine is intentionally minimal: timestamped events fire in (time,
// seq) order, seq being the order they were scheduled in, so ties are FIFO.
// Events wait in a 4-ary heap, except those scheduled with
// Engine.ScheduleArgFixed: each of up to 32 fixed delays gets a FIFO lane,
// which is sorted by construction, and the engine fires the earlier of the
// heap top and the lane heads. Because (time, seq) is a strict total order,
// where an event waits cannot change when it fires. Determinism is a design
// goal — two runs with the same inputs execute events in exactly the same
// order.
package sim

import (
	"fmt"
	"math"
	"math/big"
	"strconv"
	"strings"
)

// Time is a point in virtual time, in picoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in picoseconds.
type Duration int64

// Convenient duration units.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Nanos reports d in nanoseconds as a float64.
func (d Duration) Nanos() float64 { return float64(d) / float64(Nanosecond) }

// Micros reports d in microseconds as a float64.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// Seconds reports d in seconds as a float64.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// FromNanos converts a duration expressed in (possibly fractional)
// nanoseconds to a Duration, rounding to the nearest picosecond.
func FromNanos(ns float64) Duration {
	if ns <= 0 {
		return 0
	}
	return Duration(ns*float64(Nanosecond) + 0.5)
}

// FromMicros converts a duration expressed in microseconds to a Duration.
func FromMicros(us float64) Duration { return FromNanos(us * 1e3) }

// ParseDuration parses a virtual-time span written with an optional unit
// suffix: "500ns", "50us", "1.5ms", "2s", or a bare number meaning
// nanoseconds ("500"). It is the shared grammar of every CLI flag and spec
// string that names a simulated time.
func ParseDuration(s string) (Duration, error) {
	str := strings.TrimSpace(s)
	unit := Nanosecond
	switch {
	case strings.HasSuffix(str, "ns"):
		str = str[:len(str)-2]
	case strings.HasSuffix(str, "us"), strings.HasSuffix(str, "µs"):
		str = strings.TrimSuffix(strings.TrimSuffix(str, "us"), "µs")
		unit = Microsecond
	case strings.HasSuffix(str, "ms"):
		str, unit = str[:len(str)-2], Millisecond
	case strings.HasSuffix(str, "s"):
		str, unit = str[:len(str)-1], Second
	}
	v, err := strconv.ParseFloat(str, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("sim: bad duration %q (want e.g. 500ns, 50us, 1.5ms)", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("sim: negative duration %q", s)
	}
	// Scale the text itself, not v: a float64 holds whole picoseconds only
	// up to 2^53 ps (about 2.5 hours), and every span must parse to its
	// nearest picosecond.
	x, _, err := big.ParseFloat(str, 0, 256, big.ToNearestEven)
	var ps *big.Int
	if err == nil {
		ps, _ = x.Mul(x, new(big.Float).SetInt64(int64(unit))).Add(x, big.NewFloat(0.5)).Int(nil)
	}
	if ps == nil || !ps.IsInt64() {
		return 0, fmt.Errorf("sim: duration %q out of range", s)
	}
	return Duration(ps.Int64()), nil
}

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Nanos reports t in nanoseconds since simulation start.
func (t Time) Nanos() float64 { return float64(t) / float64(Nanosecond) }

// Seconds reports t in seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

func (t Time) String() string { return fmt.Sprintf("%.3fns", t.Nanos()) }

// Event is a scheduled callback. The zero value is not useful; events are
// created by Engine.Schedule and friends.
//
// Fired (and cancelled) Event structs are recycled by later Schedule calls
// through the engine's free list, so a simulation's hot loop schedules
// without allocating. The pointer returned by Schedule is therefore only
// meaningful until the event fires: retaining it past that point and
// passing it to Cancel later may target an unrelated, recycled event. Hold
// Event pointers only for events you know are still pending.
type Event struct {
	at  Time
	seq uint64 // tie-break: FIFO among events with equal time
	fn  func()
	// Arg-carrying form (ScheduleArg): afn is a long-lived function value
	// (typically a method value bound once at setup) and arg its payload for
	// this firing. Splitting the callback this way keeps per-event closure
	// allocation off the simulation hot path: boxing a pointer-shaped arg
	// into the interface field allocates nothing.
	afn func(any)
	arg any
	// dead marks an event that fired, or that was cancelled and waits in
	// the heap until it reaches the top and is recycled.
	dead bool
}

// Time returns the virtual time at which the event will fire.
func (e *Event) Time() Time { return e.at }

// eventQueue is a 4-ary min-heap of events ordered by (time, seq). It is
// hand-rolled rather than built on container/heap: the interface-dispatched
// Less/Swap calls of the generic heap dominated simulation CPU profiles, and
// (at, seq) is a strict total order — seq is unique — so any correct
// priority queue pops events in exactly the same sequence. Switching the
// heap's shape or sift implementation therefore cannot perturb event order,
// which keeps every determinism pin byte-identical. Arity 4 roughly halves
// tree depth versus a binary heap and keeps sibling keys on one cache line.
type eventQueue []*Event

const heapArity = 4

// siftUp moves q[i] toward the root until its parent is smaller. The moving
// event's key is held in registers; displaced parents shift down in place.
func (q eventQueue) siftUp(i int) {
	ev := q[i]
	at, seq := ev.at, ev.seq
	for i > 0 {
		p := (i - 1) / heapArity
		pe := q[p]
		if pe.at < at || (pe.at == at && pe.seq < seq) {
			break
		}
		q[i] = pe
		i = p
	}
	q[i] = ev
}

// siftDown moves q[i] toward the leaves, swapping with its smallest child
// while that child is smaller.
func (q eventQueue) siftDown(i int) {
	n := len(q)
	ev := q[i]
	at, seq := ev.at, ev.seq
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		m, me := first, q[first]
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			ce := q[c]
			if ce.at < me.at || (ce.at == me.at && ce.seq < me.seq) {
				m, me = c, ce
			}
		}
		if at < me.at || (at == me.at && seq < me.seq) {
			break
		}
		q[i] = me
		i = m
	}
	q[i] = ev
}

// push appends ev and restores heap order.
func (e *Engine) push(ev *Event) {
	e.queue = append(e.queue, ev)
	e.queue.siftUp(len(e.queue) - 1)
}

// pop removes and returns the minimum event.
func (e *Engine) pop() *Event {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	q = q[:n]
	e.queue = q
	if n > 0 {
		q[0] = last
		q.siftDown(0)
	}
	return top
}

// Lanes: at most maxLanes distinct fixed delays get a FIFO lane each, found
// through an open-addressed table of laneSlots entries keyed by the delay.
// The table is twice the cap, so a probe stays short even when every lane
// is taken.
const (
	laneBits  = 6
	laneSlots = 1 << laneBits
	maxLanes  = laneSlots / 2
)

// laneEvent is one event queued in a lane, held by value.
type laneEvent struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
}

// lane is a FIFO ring of the events scheduled with one fixed delay d. Each
// is queued at now+d with the next sequence number, and neither ever
// decreases, so a lane is always in (at, seq) order and its head is its
// minimum.
type lane struct {
	d Duration
	// at and seq copy the head's key while n > 0, so the scan for the
	// earliest head reads lane structs only, not their rings.
	at      Time
	seq     uint64
	buf     []laneEvent // ring; its length is zero or a power of two
	head, n int
}

// push appends v, doubling the ring when it is full.
func (l *lane) push(v laneEvent) {
	if l.n == len(l.buf) {
		buf := make([]laneEvent, max(16, 2*len(l.buf)))
		k := copy(buf, l.buf[l.head:])
		copy(buf[k:], l.buf[:l.head])
		l.buf, l.head = buf, 0
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = v
	if l.n == 0 {
		l.at, l.seq = v.at, v.seq
	}
	l.n++
}

// pop removes and returns the head of a non-empty lane.
func (l *lane) pop() laneEvent {
	v := l.buf[l.head]
	l.buf[l.head] = laneEvent{} // drop the arg for the garbage collector
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
	if l.n > 0 {
		h := &l.buf[l.head]
		l.at, l.seq = h.at, h.seq
	}
	return v
}

// Engine is a discrete-event simulator. The zero value is ready to use.
// Engine is not safe for concurrent use; an entire simulation runs on one
// goroutine, which is what keeps it deterministic.
type Engine struct {
	now       Time
	queue     eventQueue
	cancelled int      // cancelled events still in queue
	free      []*Event // fired/cancelled events awaiting reuse
	// lanes hold the ScheduleArgFixed events, one lane per delay, in
	// creation order; the backing array is allocated at full cap once, so
	// pointers into it stay valid. laneAt maps a delay's hash slot to its
	// lane index plus one (0: empty). minLane is the non-empty lane with the
	// earliest head, nil when every lane is empty.
	lanes   []lane
	laneAt  [laneSlots]uint8
	minLane *lane
	seq     uint64
	fired   uint64
	stopped bool
}

// New returns a fresh Engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are scheduled but not yet executed.
// Cancelled events are not counted.
func (e *Engine) Pending() int {
	n := len(e.queue) - e.cancelled
	for i := range e.lanes {
		n += e.lanes[i].n
	}
	return n
}

// Schedule runs fn after delay d (relative to the current time). A negative
// delay is treated as zero. It returns the Event, which may be passed to
// Cancel while the event is still pending; once it fires the struct may be
// recycled for a later Schedule (see Event), so do not retain it past then.
func (e *Engine) Schedule(d Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.now.Add(d), fn)
}

// ScheduleAt runs fn at absolute time t. Scheduling in the past panics: it
// would silently corrupt causality, which in a simulator is always a bug.
func (e *Engine) ScheduleAt(t Time, fn func()) *Event {
	ev := e.next(t)
	ev.fn = fn
	return ev
}

// ScheduleArg runs fn(arg) after delay d. Unlike Schedule, the callback and
// its state travel separately: fn should be a long-lived function value (a
// method value bound once at setup) and arg the per-firing payload, so the
// simulation hot path schedules without allocating a closure. A negative
// delay is treated as zero.
func (e *Engine) ScheduleArg(d Duration, fn func(any), arg any) *Event {
	if d < 0 {
		d = 0
	}
	return e.ScheduleArgAt(e.now.Add(d), fn, arg)
}

// ScheduleArgAt runs fn(arg) at absolute time t. Scheduling in the past
// panics, exactly as ScheduleAt.
func (e *Engine) ScheduleArgAt(t Time, fn func(any), arg any) *Event {
	ev := e.next(t)
	ev.afn, ev.arg = fn, arg
	return ev
}

// ScheduleArgFixed is ScheduleArg for a delay the caller schedules over and
// over — a wire, a round trip, a memory write — and fires the event exactly
// when ScheduleArg would. Events with the same delay queue in one FIFO lane
// instead of the heap, which the lane's order makes free: each is due no
// earlier than the one before it. The first maxLanes distinct delays get a
// lane; later ones go to the heap. A lane event cannot be cancelled, so no
// Event is returned.
func (e *Engine) ScheduleArgFixed(d Duration, fn func(any), arg any) {
	if d < 0 {
		d = 0
	}
	l := e.lane(d)
	if l == nil {
		e.ScheduleArg(d, fn, arg)
		return
	}
	at := e.now.Add(d)
	l.push(laneEvent{at: at, seq: e.seq, fn: fn, arg: arg})
	e.seq++
	// Only a lane that was empty gets a new head. Its seq is the newest, so
	// it leads the current earliest head only by an earlier time.
	if l.n == 1 && (e.minLane == nil || at < e.minLane.at) {
		e.minLane = l
	}
}

// lane returns the lane for delay d, creating it on first use, or nil when
// maxLanes other delays hold every lane.
func (e *Engine) lane(d Duration) *lane {
	i := uint64(d) * 0x9E3779B97F4A7C15 >> (64 - laneBits)
	for ; e.laneAt[i] != 0; i = (i + 1) % laneSlots {
		if l := &e.lanes[e.laneAt[i]-1]; l.d == d {
			return l
		}
	}
	if len(e.lanes) == maxLanes {
		return nil
	}
	if e.lanes == nil {
		e.lanes = make([]lane, 0, maxLanes)
	}
	e.lanes = append(e.lanes, lane{d: d})
	e.laneAt[i] = uint8(len(e.lanes))
	return &e.lanes[len(e.lanes)-1]
}

// next recycles (or allocates) an Event at time t and queues it with the
// next FIFO sequence number; the caller fills in the callback fields.
func (e *Engine) next(t Time) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: ScheduleAt(%v) is before now (%v)", t, e.now))
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		*ev = Event{at: t, seq: e.seq}
	} else {
		ev = &Event{at: t, seq: e.seq}
	}
	e.seq++
	e.push(ev)
	return ev
}

// Cancel deschedules a pending event: it will not fire, and Pending no
// longer counts it. Cancelling an event that already fired or was already
// cancelled is a no-op as long as the struct has not been recycled by a
// later Schedule (see Event). It reports whether the event was actually
// descheduled by this call. The event stays in the heap, marked dead, and is
// recycled once it reaches the top.
func (e *Engine) Cancel(ev *Event) bool {
	if ev == nil || ev.dead {
		return false
	}
	ev.dead = true
	ev.fn, ev.afn, ev.arg = nil, nil, nil
	e.cancelled++
	return true
}

// Stop makes the currently executing Run return after the current event
// completes. Pending events remain queued.
func (e *Engine) Stop() { e.stopped = true }

// earliest finds the next event to fire: the smaller, by (time, seq), of the
// heap top and the earliest lane head. It returns the event's time and its
// lane, nil for the heap top; ok is false when nothing is pending.
// Cancelled events reaching the heap top are recycled on the way.
func (e *Engine) earliest() (at Time, l *lane, ok bool) {
	for len(e.queue) > 0 && e.queue[0].dead {
		e.free = append(e.free, e.pop())
		e.cancelled--
	}
	l = e.minLane
	if len(e.queue) > 0 {
		top := e.queue[0]
		if l == nil {
			return top.at, nil, true
		}
		if top.at < l.at || (top.at == l.at && top.seq < l.seq) {
			return top.at, nil, true
		}
	}
	if l == nil {
		return 0, nil, false
	}
	return l.at, l, true
}

// fire executes the event earliest found: the head of lane l, or the heap
// top when l is nil.
func (e *Engine) fire(l *lane) {
	e.fired++
	if l != nil {
		v := l.pop()
		e.minLane = e.earliestLane()
		e.now = v.at
		v.fn(v.arg)
		return
	}
	ev := e.pop()
	e.now = ev.at
	ev.dead = true
	fn, afn, arg := ev.fn, ev.afn, ev.arg
	ev.fn, ev.afn, ev.arg = nil, nil, nil
	e.free = append(e.free, ev)
	if afn != nil {
		afn(arg)
	} else {
		fn()
	}
}

// earliestLane scans the lanes for the non-empty one with the earliest head.
func (e *Engine) earliestLane() *lane {
	var m *lane
	for i := range e.lanes {
		l := &e.lanes[i]
		if l.n == 0 {
			continue
		}
		if m == nil {
			m = l
			continue
		}
		if l.at < m.at || (l.at == m.at && l.seq < m.seq) {
			m = l
		}
	}
	return m
}

// Step executes the single earliest pending event. It reports false when
// nothing is pending.
func (e *Engine) Step() bool {
	_, l, ok := e.earliest()
	if ok {
		e.fire(l)
	}
	return ok
}

// Run executes events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with time ≤ deadline, then advances the clock to
// the deadline (if the clock has not already passed it). Events scheduled
// exactly at the deadline do fire.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		at, l, ok := e.earliest()
		if !ok || at > deadline {
			break
		}
		e.fire(l)
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events for a span d of virtual time starting now.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }
