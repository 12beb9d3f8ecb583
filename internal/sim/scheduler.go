package sim

// The scheduler is the innermost loop of every experiment. Its queue is
// a degenerate calendar queue (Brown, CACM 1988) with one bucket per
// distinct instant: a hand-rolled 4-ary min-heap orders the distinct
// queued times, and each instant's bucket lists that instant's entries
// in schedule order. A multicast fan-out puts hundreds of events on a
// few dozen instants, so a batch costs one heap removal per instant
// rather than one sift per event. An open-addressed at -> bucket index
// (linear probing, backward-shift delete) finds an instant's bucket on
// push. Entries are 24-byte cells from a pooled free list, so the queue
// stores one cell per queued event plus a few words per instant.
//
// Timer slots come from a free-list pool too, so scheduling allocates
// nothing in steady state. Generation counters make Timer handles safe
// across slot reuse: a stale handle (fired or stopped timer) simply
// no-ops. Cancelled timers are removed lazily; when more than half the
// queue is dead the buckets are compacted in one pass.

// Timer is a handle to a scheduled event. The zero Timer is inactive;
// cancelling an expired, cancelled, or zero timer is a no-op.
type Timer struct {
	s    *Scheduler
	slot int32 // slot index + 1; 0 marks the zero handle
	gen  uint32
}

// At returns the virtual time the timer fires, or 0 once it has fired or
// been stopped.
func (t Timer) At() Time {
	if !t.Active() {
		return 0
	}
	return t.s.slots[t.slot-1].at
}

// Stop cancels the timer. It reports whether the timer was still pending.
func (t Timer) Stop() bool {
	if !t.Active() {
		return false
	}
	t.s.stopSlot(t.slot - 1)
	return true
}

// Active reports whether the timer is still pending and not cancelled.
func (t Timer) Active() bool {
	return t.slot != 0 && t.s.slots[t.slot-1].gen == t.gen
}

// timerSlot is pooled storage for one scheduled event. gen increments on
// every release, invalidating outstanding Timer handles and queued entries.
type timerSlot struct {
	at    Time
	fn    func()
	fnArg func(any)
	arg   any
	gen   uint32
	next  int32 // free-list link
}

// entry is one queued event, a cell of its instant's bucket list: 24
// bytes, no pointers. Cells come from a free-list pool, so the queue
// holds one cell per queued event whatever the instants look like.
type entry struct {
	seq  uint64
	slot int32
	gen  uint32
	next int32 // next cell of the bucket in seq order, -1 at the tail; free-list link
}

// instant is a heap node: a distinct queued time and the bucket of the
// entries due then. Nodes compare on at alone.
type instant struct {
	at Time
	b  int32
}

// bucket is one instant's entries as a list in seq order, so
// simultaneous events run in schedule order (FIFO).
type bucket struct {
	head  int32 // first undispatched entry; free-list link once released
	tail  int32
	count int32
	last  int32 // entry placed by the latest insertion behind the tail, or -1
}

// indexSlot is one cell of the open-addressed at -> bucket index.
type indexSlot struct {
	at Time
	b  int32 // bucket index + 1; 0 marks an empty cell
}

// Scheduler is a single-threaded discrete-event scheduler. Events scheduled
// for the same instant run in the order they were scheduled.
type Scheduler struct {
	now  Time
	seq  uint64
	nRun uint64

	heap     []instant   // 4-ary min-heap of distinct queued instants
	buckets  []bucket    // bucket storage; heap nodes and index cells point here
	freeB    int32       // head of the bucket free list, -1 when empty
	entries  []entry     // entry cell pool
	freeE    int32       // head of the entry free list, -1 when empty
	index    []indexSlot // power-of-two table, at most a quarter full
	idxShift uint        // 64 - log2(len(index))
	n        int         // entries queued in heap buckets, dead ones included

	slots    []timerSlot
	free     int32 // head of the slot free list, -1 when empty
	nStopped int   // dead entries still queued

	runBound Time   // upper bound of the active RunUntil window
	nBatches uint64 // dispatch batches executed by RunUntil/Run
	pendAt   Time   // key of the next undispatched batch member…
	pendSeq  uint64 // …0 when no batch member is pending
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{free: -1, freeB: -1, freeE: -1} }

// Batches returns the number of dispatch batches executed so far. Mean
// batch occupancy is Processed()/Batches(). Events run by Step count
// in no batch.
func (s *Scheduler) Batches() uint64 { return s.nBatches }

// Reset rewinds the scheduler to its initial state — clock at zero, no
// pending events — while keeping the queue and slot storage allocated.
// Every outstanding Timer handle is invalidated (stopping one later is a
// no-op), and event closures/arguments are dropped so the GC can reclaim
// what they reference. A reset scheduler behaves bit-for-bit like a fresh
// one: event ordering depends only on (time, schedule order), never on
// slot or bucket identity.
func (s *Scheduler) Reset() {
	s.now, s.seq, s.nRun, s.nStopped = 0, 0, 0, 0
	s.runBound, s.nBatches = 0, 0
	s.pendAt, s.pendSeq = 0, 0
	s.heap = s.heap[:0]
	clear(s.index)
	s.n = 0
	s.freeB = -1
	for i := range s.buckets {
		s.releaseBucket(int32(i))
	}
	s.freeE = -1
	for i := range s.entries {
		s.freeEntry(int32(i))
	}
	s.free = -1
	for i := range s.slots {
		sl := &s.slots[i]
		sl.gen++
		sl.fn, sl.fnArg, sl.arg = nil, nil, nil
		sl.next = s.free
		s.free = int32(i)
	}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Scheduler) Processed() uint64 { return s.nRun }

// Pending returns the number of events still queued (including cancelled
// timers that have not been reaped yet).
func (s *Scheduler) Pending() int { return s.n }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a protocol bug.
func (s *Scheduler) At(t Time, fn func()) Timer {
	return s.schedule(t, fn, nil, nil)
}

// After schedules fn to run d after the current time. A negative d
// counts as 0; a d that would run past MaxTime schedules at MaxTime.
func (s *Scheduler) After(d Time, fn func()) Timer {
	return s.schedule(s.later(d), fn, nil, nil)
}

// AtArg schedules fn(arg) at absolute time t. Unlike At it needs no
// closure: callers keep one fn per object and pass per-event state in arg,
// so scheduling a packet event allocates nothing.
func (s *Scheduler) AtArg(t Time, fn func(any), arg any) Timer {
	return s.schedule(t, nil, fn, arg)
}

// AfterArg schedules fn(arg) to run d after the current time, with
// After's clamping of d.
func (s *Scheduler) AfterArg(d Time, fn func(any), arg any) Timer {
	return s.schedule(s.later(d), nil, fn, arg)
}

// later returns now+d with d clamped to [0, MaxTime-now].
func (s *Scheduler) later(d Time) Time {
	if d < 0 {
		return s.now
	}
	if d > MaxTime-s.now {
		return MaxTime
	}
	return s.now + d
}

func (s *Scheduler) schedule(t Time, fn func(), fnArg func(any), arg any) Timer {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	s.seq++
	return s.scheduleSeq(t, s.seq, fn, fnArg, arg)
}

func (s *Scheduler) scheduleSeq(t Time, seq uint64, fn func(), fnArg func(any), arg any) Timer {
	si := s.free
	if si < 0 {
		s.slots = append(s.slots, timerSlot{})
		si = int32(len(s.slots) - 1)
	} else {
		s.free = s.slots[si].next
	}
	sl := &s.slots[si]
	sl.at, sl.fn, sl.fnArg, sl.arg = t, fn, fnArg, arg
	s.push(t, entry{seq: seq, slot: si, gen: sl.gen, next: -1})
	return Timer{s: s, slot: si + 1, gen: sl.gen}
}

// ReserveSeq consumes and returns the next schedule-order sequence
// number without queueing anything. Coalesced event sources (the link
// arrival rings) reserve one seq per event exactly as a push would, so
// the global (time, seq) dispatch order — and hence every downstream
// byte — is identical whether an arrival sits in a ring or in the queue.
func (s *Scheduler) ReserveSeq() uint64 {
	s.seq++
	return s.seq
}

// AtSeqArg schedules fn(arg) at absolute time t under a previously
// reserved sequence number. It consumes no new seq: the event competes
// for dispatch order as if it had been pushed when seq was reserved.
func (s *Scheduler) AtSeqArg(t Time, seq uint64, fn func(any), arg any) Timer {
	if t < s.now {
		panic("sim: event scheduled in the past")
	}
	return s.scheduleSeq(t, seq, nil, fn, arg)
}

// CanInline reports whether an event with key (t, seq) may be executed
// right now without going through the queue: it must not pass the
// active run bound, and must precede the earliest queued entry. The
// comparison with the top bucket's head is conservative — a dead
// (cancelled) head defers inlining until the dead entry is discarded —
// which only costs batching, never ordering.
func (s *Scheduler) CanInline(t Time, seq uint64) bool {
	if t > s.runBound {
		return false
	}
	// A batch member taken off the queue but not yet dispatched is just
	// as much "earliest queued" as the top bucket's head: batched
	// dispatch publishes the next member's key here so inlined arrivals
	// cannot jump ahead of it.
	if s.pendSeq != 0 && (s.pendAt < t || (s.pendAt == t && s.pendSeq < seq)) {
		return false
	}
	if len(s.heap) > 0 {
		top := s.heap[0]
		if top.at < t || (top.at == t && s.entries[s.buckets[top.b].head].seq < seq) {
			return false
		}
	}
	return true
}

// NoteInlineEvent accounts for one event executed outside the queue (a
// coalesced ring arrival drained inline): the clock advances to t and
// the processed count — and the occupancy of the current dispatch
// batch — include it, exactly as if it had been popped.
func (s *Scheduler) NoteInlineEvent(t Time) {
	s.now = t
	s.nRun++
}

// releaseSlot invalidates all handles/entries for the slot and returns it
// to the free list.
func (s *Scheduler) releaseSlot(si int32) {
	sl := &s.slots[si]
	sl.gen++
	sl.fn, sl.fnArg, sl.arg = nil, nil, nil
	sl.next = s.free
	s.free = si
}

func (s *Scheduler) stopSlot(si int32) {
	s.releaseSlot(si)
	s.nStopped++
	if s.nStopped*2 > s.n {
		s.reap()
	}
}

// dispatch runs a live entry's event at time at.
func (s *Scheduler) dispatch(at Time, e entry) {
	sl := &s.slots[e.slot]
	fn, fnArg, arg := sl.fn, sl.fnArg, sl.arg
	s.releaseSlot(e.slot)
	s.now = at
	s.nRun++
	if fn != nil {
		fn()
	} else {
		fnArg(arg)
	}
}

func (s *Scheduler) dead(e entry) bool { return s.slots[e.slot].gen != e.gen }

// push queues e at instant at: appended to the instant's bucket, or in
// a new bucket and heap node when at is not queued yet.
func (s *Scheduler) push(at Time, e entry) {
	s.n++
	ei := s.freeE
	if ei < 0 {
		s.entries = append(s.entries, e)
		ei = int32(len(s.entries) - 1)
	} else {
		s.freeE = s.entries[ei].next
		s.entries[ei] = e
	}
	if len(s.index) == 0 {
		s.growIndex()
	}
	mask := len(s.index) - 1
	i := s.home(at)
	for ; s.index[i].b != 0; i = (i + 1) & mask {
		if s.index[i].at == at {
			s.appendEntry(s.index[i].b-1, ei)
			return
		}
	}
	b := s.freeB
	if b < 0 {
		s.buckets = append(s.buckets, bucket{})
		b = int32(len(s.buckets) - 1)
	} else {
		s.freeB = s.buckets[b].head
	}
	s.buckets[b] = bucket{head: ei, tail: ei, count: 1, last: -1}
	s.index[i] = indexSlot{at: at, b: b + 1}
	s.heap = append(s.heap, instant{at: at, b: b})
	s.siftUp(len(s.heap) - 1)
	// A sparse table keeps probe runs short: most pushes on a sparse
	// timeline are misses, which probe to the end of their run.
	if 4*len(s.heap) > len(s.index) {
		s.growIndex()
	}
}

// appendEntry links entry ei into bucket b in seq order. Seqs are pushed
// in increasing order except under AtSeqArg, whose reserved seq may be
// older than entries already queued at that instant; it is inserted
// among the undispatched entries. Such insertions come in runs of
// increasing seq (links re-arming their rings one after another), so
// the walk starts from the previous insertion when that lies before the
// new entry, which keeps a run linear in the bucket's length.
func (s *Scheduler) appendEntry(b int32, ei int32) {
	bk := &s.buckets[b]
	es := s.entries
	seq := es[ei].seq
	bk.count++
	if es[bk.tail].seq < seq {
		es[bk.tail].next = ei
		bk.tail = ei
		return
	}
	if seq < es[bk.head].seq {
		es[ei].next = bk.head
		bk.head = ei
		return
	}
	p := bk.head
	if bk.last >= 0 && es[bk.last].seq < seq {
		p = bk.last
	}
	for es[es[p].next].seq < seq {
		p = es[p].next
	}
	es[ei].next = es[p].next
	es[p].next = ei
	bk.last = ei
}

func (s *Scheduler) freeEntry(ei int32) {
	s.entries[ei].next = s.freeE
	s.freeE = ei
}

// releaseBucket returns bucket b to the free list.
func (s *Scheduler) releaseBucket(b int32) {
	s.buckets[b].head = s.freeB
	s.freeB = b
}

// popHead removes and returns the top bucket's first entry, dropping the
// bucket once it is empty.
func (s *Scheduler) popHead() entry {
	b := s.heap[0].b
	bk := &s.buckets[b]
	ei := bk.head
	e := s.entries[ei]
	s.freeEntry(ei)
	s.n--
	bk.count--
	if bk.last == ei {
		bk.last = -1
	}
	if bk.count > 0 {
		bk.head = e.next
		return e
	}
	s.unlinkTop()
	s.releaseBucket(b)
	return e
}

// unlinkTop removes the top instant from the heap and the index; its
// bucket stays allocated for the caller.
func (s *Scheduler) unlinkTop() {
	h := s.heap
	s.indexDel(h[0].at)
	n := len(h) - 1
	h[0] = h[n]
	s.heap = h[:n]
	if n > 1 {
		s.siftDown(0)
	}
}

// home returns the preferred index cell of at (Fibonacci hashing).
func (s *Scheduler) home(at Time) int {
	return int((uint64(at) * 0x9E3779B97F4A7C15) >> s.idxShift)
}

// growIndex doubles the index (64 cells at first) and reinserts every
// queued instant.
func (s *Scheduler) growIndex() {
	size := 2 * len(s.index)
	if size == 0 {
		size = 64
	}
	s.index = make([]indexSlot, size)
	s.idxShift = 64
	for c := size; c > 1; c >>= 1 {
		s.idxShift--
	}
	s.reindex()
}

// reindex rebuilds the (cleared) index from the heap.
func (s *Scheduler) reindex() {
	mask := len(s.index) - 1
	for _, in := range s.heap {
		i := s.home(in.at)
		for s.index[i].b != 0 {
			i = (i + 1) & mask
		}
		s.index[i] = indexSlot{at: in.at, b: in.b + 1}
	}
}

// indexDel removes at, which must be present, from the index and shifts
// the rest of its probe run back so no tombstone is needed.
func (s *Scheduler) indexDel(at Time) {
	idx := s.index
	mask := len(idx) - 1
	i := s.home(at)
	for idx[i].b == 0 || idx[i].at != at {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; idx[j].b != 0; j = (j + 1) & mask {
		// The cell at j may fill the hole at i unless its home lies
		// cyclically in (i, j].
		if (j-s.home(idx[j].at))&mask >= (j-i)&mask {
			idx[i] = idx[j]
			i = j
		}
	}
	idx[i] = indexSlot{}
}

// reap removes dead entries (whose slot generation moved on) in one
// pass, drops the buckets left empty and rebuilds the heap and index.
func (s *Scheduler) reap() {
	live := s.heap[:0]
	s.n = 0
	es := s.entries
	for _, in := range s.heap {
		bk := &s.buckets[in.b]
		head, tail, count := int32(-1), int32(-1), int32(0)
		for ei := bk.head; ei >= 0; {
			next := es[ei].next
			if s.dead(es[ei]) {
				s.freeEntry(ei)
			} else {
				if tail < 0 {
					head = ei
				} else {
					es[tail].next = ei
				}
				tail = ei
				count++
			}
			ei = next
		}
		if count == 0 {
			s.releaseBucket(in.b)
			continue
		}
		es[tail].next = -1
		*bk = bucket{head: head, tail: tail, count: count, last: -1}
		s.n += int(count)
		live = append(live, in)
	}
	s.heap = live
	s.nStopped = 0
	if len(s.heap) > 1 {
		for i := (len(s.heap) - 2) / 4; i >= 0; i-- {
			s.siftDown(i)
		}
	}
	clear(s.index)
	s.reindex()
}

func (s *Scheduler) siftUp(i int) {
	h := s.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 4
		if x.at >= h[p].at {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	x := h[i]
	for {
		c := i*4 + 1
		var best int
		var bestAt Time
		if c+3 < n {
			// Full node: a tournament of two pairs, decided by sign
			// bits rather than branches, which the random order of
			// queued times would mispredict. Queued times lie in
			// [0, MaxTime], so their differences cannot overflow.
			k := h[c : c+4 : c+4]
			lo := int((k[1].at-k[0].at)>>63) & 1
			hi := 2 + int((k[3].at-k[2].at)>>63)&1
			lo ^= (lo ^ hi) & int((k[hi&3].at-k[lo&3].at)>>63)
			best, bestAt = c+lo, k[lo&3].at
		} else if c < n {
			best, bestAt = c, h[c].at
			for j := c + 1; j < n; j++ {
				if h[j].at < bestAt {
					best, bestAt = j, h[j].at
				}
			}
		} else {
			break
		}
		if bestAt >= x.at {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = x
}

// noteDeadPop accounts for one dead entry removed from the queue and
// reaps when the remainder is still majority-dead. stopSlot only checks
// the threshold on cancellation, so without this a long cancel-heavy run
// that goes quiet (no further pushes) would keep dead timers queued and
// pay a dead-entry pop per live event indefinitely.
func (s *Scheduler) noteDeadPop() {
	if s.nStopped > 0 {
		s.nStopped--
	}
	if s.nStopped*2 > s.n {
		s.reap()
	}
}

// discardDead pops dead entries off the top bucket's head until a live
// entry (or nothing) is at the top.
func (s *Scheduler) discardDead() {
	for len(s.heap) > 0 && s.dead(s.entries[s.buckets[s.heap[0].b].head]) {
		s.popHead()
		s.noteDeadPop()
	}
}

// Step runs the next event. It reports false when the queue is empty.
// It is the event-at-a-time reference that batched dispatch (RunUntil,
// Run) must reproduce exactly.
func (s *Scheduler) Step() bool {
	for len(s.heap) > 0 {
		at := s.heap[0].at
		e := s.popHead()
		if s.dead(e) {
			s.noteDeadPop()
			continue
		}
		s.dispatch(at, e)
		return true
	}
	return false
}

// RunUntil executes events until the clock would pass t; afterwards the
// clock reads exactly t. Events at exactly t are executed. It takes the
// top instant's whole bucket off the queue in one heap removal and
// dispatches it as a batch, re-checking each entry's generation at
// dispatch time so a batch member cancelled by an earlier member still
// no-ops exactly as under Step. Events a batch member schedules at the
// same instant land in a new follow-up bucket — their seqs are higher
// than every taken member's, so (time, seq) order is preserved
// bit-for-bit.
func (s *Scheduler) RunUntil(t Time) {
	s.runBound = t
	s.batchDrain(t)
	if s.now < t {
		s.now = t
	}
	s.runBound = s.now
}

// batchDrain is the burst loop shared by RunUntil and Run: it
// executes batches up to and including time t but leaves the clock at
// the last dispatched event (callers decide whether to advance to t).
func (s *Scheduler) batchDrain(t Time) {
	for {
		// Discard dead entries at the top first so a block of cancelled
		// timers beyond the bound is reaped rather than left queued, and
		// the peeked time is a live event's.
		s.discardDead()
		if len(s.heap) == 0 {
			return
		}
		top := s.heap[0]
		if top.at > t {
			return
		}
		s.nBatches++
		bk := s.buckets[top.b]
		if bk.count == 1 {
			// Singleton batch — the common case on sparse timelines:
			// dispatch without staging. The entry is live (discardDead
			// ran) and pendSeq is already 0.
			s.dispatch(top.at, s.popHead())
			continue
		}
		// Take the whole bucket. Dead entries are carried along and
		// skipped at dispatch; they cost a slot in the batch but no
		// callback. Each cell is copied out and freed before its
		// callback runs, so nothing scheduled meanwhile can clobber the
		// rest of the list.
		s.unlinkTop()
		s.releaseBucket(top.b)
		s.n -= int(bk.count)
		for ei := bk.head; ei >= 0; {
			e := s.entries[ei]
			s.freeEntry(ei)
			ei = e.next
			if s.dead(e) {
				s.noteDeadPop()
				continue
			}
			if ei >= 0 {
				s.pendAt, s.pendSeq = top.at, s.entries[ei].seq
			} else {
				s.pendSeq = 0
			}
			s.dispatch(top.at, e)
		}
		s.pendSeq = 0
	}
}

// PeekTime returns the time of the earliest pending live event. ok is
// false when no live event is queued. Dead entries blocking the top are
// discarded on the way, so a PeekTime after a burst of cancellations is
// O(dead) once, then O(1).
func (s *Scheduler) PeekTime() (t Time, ok bool) {
	s.discardDead()
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}

// Run executes events until the queue drains, in batches like RunUntil.
func (s *Scheduler) Run() {
	s.runBound = MaxTime
	s.batchDrain(MaxTime)
	s.runBound = s.now
}
