package sim

import (
	"fmt"
	"slices"
	"testing"
)

// FuzzSchedulerOrder runs a byte-driven scheduling program twice: on the
// Scheduler and on a sorted-slice reference that simply dispatches the
// earliest (at, seq) entry. The two dispatch logs — event ids, Stop
// results, clocks, PeekTime answers and processed counts — must agree.
//
// The program exercises At, After, AtArg, ReserveSeq with AtSeqArg (a
// reserved seq may be older than entries already queued at its
// instant), Stop on queued timers and on members of the batch being
// dispatched, RunUntil, Run, Step, PeekTime and Reset. A link-style
// arrival ring drains parked events inline while CanInline allows and
// re-arms a timer under the head's reserved seq otherwise; the reference
// never inlines, so any inlining the Scheduler allows out of order shows
// as a log mismatch. Parked arrival times strictly increase, as they do
// on a link that serialises its packets, so a re-armed ring timer never
// lands on the instant being dispatched.
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{0, 3, 0, 3, 1, 0, 6, 5})
	f.Add([]byte{9, 2, 9, 4, 9, 4, 0, 4, 6, 9, 11})
	f.Add([]byte{3, 0, 5, 9, 4, 0, 2, 4, 6, 7, 7, 8, 10, 0, 1, 11})
	f.Add([]byte("\x00\x01\x01\x03\x02\x05\x03\x04\x04\x02\x06\x03\x07\x08\x05\x01\x0b"))
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 2048 {
			prog = prog[:2048]
		}
		want := runOrderProgram(prog, &refQueue{})
		got := runOrderProgram(prog, &schedQueue{s: NewScheduler()})
		if i := firstDiff(got, want); i >= 0 {
			t.Fatalf("logs diverge at %d:\n got %v\nwant %v", i, window(got, i), window(want, i))
		}
	})
}

func firstDiff(a, b []int64) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func window(l []int64, i int) []int64 { return l[max(0, i-6):min(len(l), i+6)] }

// orderQueue is what a scheduling program drives. Handles are indexes
// into the queue's own handle list; fire(id) runs the program's event id.
type orderQueue interface {
	init(fire func(id int))
	now() Time
	at(t Time, id int, arg bool) int
	after(d Time, id int) int
	reserve() uint64
	atSeq(t Time, seq uint64, id int) int
	stop(h int) bool
	runUntil(t Time)
	run()
	step() bool
	peek() (Time, bool)
	canInline(t Time, seq uint64) bool
	noteInline(t Time)
	reset()
	processed() uint64
}

type schedQueue struct {
	s      *Scheduler
	timers []Timer
	fire   func(id int)
	fireA  func(any)
}

func (q *schedQueue) init(fire func(int)) {
	q.fire = fire
	q.fireA = func(a any) { fire(a.(int)) }
}
func (q *schedQueue) now() Time { return q.s.Now() }
func (q *schedQueue) add(tm Timer) int {
	q.timers = append(q.timers, tm)
	return len(q.timers) - 1
}
func (q *schedQueue) at(t Time, id int, arg bool) int {
	if arg {
		return q.add(q.s.AtArg(t, q.fireA, id))
	}
	return q.add(q.s.At(t, func() { q.fire(id) }))
}
func (q *schedQueue) after(d Time, id int) int {
	return q.add(q.s.After(d, func() { q.fire(id) }))
}
func (q *schedQueue) reserve() uint64 { return q.s.ReserveSeq() }
func (q *schedQueue) atSeq(t Time, seq uint64, id int) int {
	return q.add(q.s.AtSeqArg(t, seq, q.fireA, id))
}
func (q *schedQueue) stop(h int) bool                   { return q.timers[h].Stop() }
func (q *schedQueue) runUntil(t Time)                   { q.s.RunUntil(t) }
func (q *schedQueue) run()                              { q.s.Run() }
func (q *schedQueue) step() bool                        { return q.s.Step() }
func (q *schedQueue) peek() (Time, bool)                { return q.s.PeekTime() }
func (q *schedQueue) canInline(t Time, seq uint64) bool { return q.s.CanInline(t, seq) }
func (q *schedQueue) noteInline(t Time)                 { q.s.NoteInlineEvent(t) }
func (q *schedQueue) reset()                            { q.s.Reset() }
func (q *schedQueue) processed() uint64                 { return q.s.Processed() }

// refQueue keeps live entries sorted by (at, seq) and dispatches the
// first one; a stopped entry leaves the slice at once.
type refQueue struct {
	clock   Time
	seq     uint64
	n       uint64
	q       []refEntry
	pending []bool // by handle
	fire    func(id int)
}

type refEntry struct {
	at  Time
	seq uint64
	id  int
	h   int
}

func (r *refQueue) init(fire func(int)) { r.fire = fire }
func (r *refQueue) now() Time           { return r.clock }
func (r *refQueue) insert(t Time, seq uint64, id int) int {
	if t < r.clock {
		panic("reference: event scheduled in the past")
	}
	h := len(r.pending)
	r.pending = append(r.pending, true)
	e := refEntry{at: t, seq: seq, id: id, h: h}
	i, _ := slices.BinarySearchFunc(r.q, e, func(a, b refEntry) int {
		if a.at != b.at {
			return cmpTime(a.at, b.at)
		}
		return cmpTime(Time(a.seq), Time(b.seq))
	})
	r.q = slices.Insert(r.q, i, e)
	return h
}
func cmpTime(a, b Time) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}
func (r *refQueue) at(t Time, id int, _ bool) int {
	r.seq++
	return r.insert(t, r.seq, id)
}
func (r *refQueue) after(d Time, id int) int { return r.at(r.clock+max(d, 0), id, false) }
func (r *refQueue) reserve() uint64 {
	r.seq++
	return r.seq
}
func (r *refQueue) atSeq(t Time, seq uint64, id int) int { return r.insert(t, seq, id) }
func (r *refQueue) stop(h int) bool {
	if !r.pending[h] {
		return false
	}
	r.pending[h] = false
	r.q = slices.DeleteFunc(r.q, func(e refEntry) bool { return e.h == h })
	return true
}
func (r *refQueue) pop() {
	e := r.q[0]
	r.q = r.q[1:]
	r.pending[e.h] = false
	r.clock = e.at
	r.n++
	r.fire(e.id)
}
func (r *refQueue) runUntil(t Time) {
	for len(r.q) > 0 && r.q[0].at <= t {
		r.pop()
	}
	r.clock = max(r.clock, t)
}
func (r *refQueue) run() {
	for len(r.q) > 0 {
		r.pop()
	}
}
func (r *refQueue) step() bool {
	if len(r.q) == 0 {
		return false
	}
	r.pop()
	return true
}
func (r *refQueue) peek() (Time, bool) {
	if len(r.q) == 0 {
		return 0, false
	}
	return r.q[0].at, true
}
func (r *refQueue) canInline(Time, uint64) bool { return false }
func (r *refQueue) noteInline(Time)             { panic("reference never inlines") }
func (r *refQueue) reset() {
	r.clock, r.seq, r.n, r.q = 0, 0, 0, nil
	clear(r.pending)
}
func (r *refQueue) processed() uint64 { return r.n }

// ringRearm is the event id of a re-armed ring timer, which stands for
// the ring's head.
const ringRearm = -1

type parkedEvent struct {
	at  Time
	seq uint64
	id  int
}

// orderProgram interprets a byte string against one queue and logs
// everything observable.
type orderProgram struct {
	prog     []byte
	pos      int
	q        orderQueue
	log      []int64
	budget   int   // events callbacks may still schedule
	nextID   int   // next event id
	stops    []int // handles the program may stop
	reserved []uint64

	// Arrival ring, after simnet's link delivery ring.
	ring   []parkedEvent
	rhead  int
	armed  bool
	last   Time
	direct []bool // by id: the event is a first-of-train ring timer
}

func runOrderProgram(prog []byte, q orderQueue) []int64 {
	p := &orderProgram{prog: prog, q: q, budget: 4 * len(prog)}
	q.init(p.fire)
	for p.pos < len(p.prog) {
		p.topOp()
	}
	p.q.run()
	p.log = append(p.log, -2, int64(p.q.now()), int64(p.q.processed()))
	return p.log
}

func (p *orderProgram) next() int {
	if p.pos >= len(p.prog) {
		return 0
	}
	c := p.prog[p.pos]
	p.pos++
	return int(c)
}

func (p *orderProgram) newID() int {
	p.nextID++
	p.direct = append(p.direct, false)
	return p.nextID - 1
}

func (p *orderProgram) stoppable(h int) { p.stops = append(p.stops, h) }

func (p *orderProgram) takeReserved() (uint64, bool) {
	if len(p.reserved) == 0 {
		return 0, false
	}
	i := p.next() % len(p.reserved)
	seq := p.reserved[i]
	p.reserved = slices.Delete(p.reserved, i, i+1)
	return seq, true
}

func (p *orderProgram) stopOne() {
	if len(p.stops) == 0 {
		return
	}
	ok := p.q.stop(p.stops[p.next()%len(p.stops)])
	p.log = append(p.log, -3, boolInt(ok))
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// topOp runs one operation from outside any event.
func (p *orderProgram) topOp() {
	now := p.q.now()
	switch p.next() % 12 {
	case 0:
		p.stoppable(p.q.at(now+Time(p.next()%8), p.newID(), false))
	case 1:
		p.stoppable(p.q.after(Time(p.next()%8), p.newID()))
	case 2:
		p.stoppable(p.q.at(now+Time(p.next()%8), p.newID(), true))
	case 3:
		p.reserved = append(p.reserved, p.q.reserve())
	case 4:
		// May land on the current instant, behind or ahead of entries a
		// Step left there.
		if seq, ok := p.takeReserved(); ok {
			p.stoppable(p.q.atSeq(now+Time(p.next()%8), seq, p.newID()))
		}
	case 5:
		p.stopOne()
	case 6:
		p.q.runUntil(now + Time(p.next()%6))
		p.log = append(p.log, -4, int64(p.q.now()), int64(p.q.processed()))
	case 7:
		ok := p.q.step()
		p.log = append(p.log, -5, boolInt(ok), int64(p.q.now()))
	case 8:
		t, ok := p.q.peek()
		p.log = append(p.log, -6, int64(t), boolInt(ok))
	case 9:
		p.ringAppend(now + 1 + Time(p.next()%8))
	case 10:
		p.q.reset()
		p.reserved = p.reserved[:0]
		p.ring, p.rhead, p.armed, p.last = p.ring[:0], 0, false, 0
		p.log = append(p.log, -7)
	case 11:
		p.q.run()
		p.log = append(p.log, -8, int64(p.q.now()), int64(p.q.processed()))
	}
}

// fire is the callback of every event the program schedules.
func (p *orderProgram) fire(id int) {
	switch {
	case id == ringRearm:
		e := p.ring[p.rhead]
		p.rhead++
		p.deliver(e.id)
		p.drain()
	case p.direct[id]:
		p.deliver(id)
		p.drain()
	default:
		p.deliver(id)
	}
}

// deliver logs one event and lets it act.
func (p *orderProgram) deliver(id int) {
	now := p.q.now()
	p.log = append(p.log, int64(id), int64(now))
	if p.budget <= 0 {
		return
	}
	p.budget--
	switch p.next() % 8 {
	case 1:
		p.stoppable(p.q.at(now+Time(p.next()%4), p.newID(), false))
	case 2:
		p.stoppable(p.q.after(Time(p.next()%4), p.newID()))
	case 3:
		// Often a member of the batch being dispatched.
		p.stopOne()
	case 4:
		p.ringAppend(now + 1 + Time(p.next()%4))
	case 5:
		if seq, ok := p.takeReserved(); ok {
			p.stoppable(p.q.atSeq(now+1+Time(p.next()%4), seq, p.newID()))
		}
	case 6:
		p.reserved = append(p.reserved, p.q.reserve())
	case 7:
		p.stoppable(p.q.at(now+Time(p.next()%4), p.newID(), true))
	}
}

// ringAppend mirrors simnet's Link.ringAppend: an arrival no later than
// the newest rides its own timer, the first of a train rides a direct
// timer, and later ones park behind it.
func (p *orderProgram) ringAppend(at Time) {
	seq := p.q.reserve()
	id := p.newID()
	if at <= p.last {
		p.stoppable(p.q.atSeq(at, seq, id))
		return
	}
	p.last = at
	if !p.armed {
		p.armed = true
		p.direct[id] = true
		p.q.atSeq(at, seq, id)
		return
	}
	p.ring = append(p.ring, parkedEvent{at: at, seq: seq, id: id})
}

// drain mirrors simnet's Link.drainRing.
func (p *orderProgram) drain() {
	for p.rhead < len(p.ring) {
		nx := p.ring[p.rhead]
		if !p.q.canInline(nx.at, nx.seq) {
			break
		}
		p.rhead++
		p.q.noteInline(nx.at)
		p.deliver(nx.id)
	}
	if p.rhead == len(p.ring) {
		p.ring, p.rhead, p.armed = p.ring[:0], 0, false
		return
	}
	nx := p.ring[p.rhead]
	p.q.atSeq(nx.at, nx.seq, ringRearm)
}

// TestFuzzOrderProgramFormat pins the log format the fuzz target
// compares, so a harness change that silently logs nothing fails here.
func TestFuzzOrderProgramFormat(t *testing.T) {
	log := runOrderProgram([]byte{0, 2, 0, 2, 6, 5}, &schedQueue{s: NewScheduler()})
	if got := fmt.Sprint(log); got != "[0 2 1 2 -4 5 2 -2 5 2]" {
		t.Fatalf("log = %s", got)
	}
}
