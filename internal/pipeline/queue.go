package pipeline

// queue is an allocation-free FIFO for the pipeline's bounded stage
// queues (fetch queue, µop queue, load/store queues). Popping from the
// front advances a head index instead of reslicing the buffer away —
// reslicing (`q = q[1:]`) permanently abandons the popped slot, so every
// later append reallocates once the backing array is consumed, which the
// profile shows as the simulator's dominant allocation source. The dead
// prefix is recycled when the queue drains and compacted once it grows
// past a fixed threshold, so steady-state simulation performs no queue
// allocations at all.
type queue[T any] struct {
	buf  []T
	head int
}

// compactAt bounds the dead prefix. The live portion of every pipeline
// queue is small (≤ ROB-scale), so compaction copies little and runs
// rarely.
const compactAt = 256

func (q *queue[T]) len() int  { return len(q.buf) - q.head }
func (q *queue[T]) front() *T { return &q.buf[q.head] }
func (q *queue[T]) live() []T { return q.buf[q.head:] }
func (q *queue[T]) push(v T)  { q.buf = append(q.buf, v) }

func (q *queue[T]) popFront() {
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head >= compactAt {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
}

// ring is a fixed-capacity power-of-two FIFO for the frontend stage
// queues (fetch queue, µop queue), whose occupancy is bounded by config
// before every push. Unlike queue it never touches the slice header: the
// backing store is allocated once by newRing and the uint32 indices wrap
// by mask, so pushSlot is a single index bump — it runs at fetch/decode
// width every simulated cycle.
type ring[T any] struct {
	buf  []T
	mask uint32
	head uint32
	tail uint32
}

func newRing[T any](capacity int) ring[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return ring[T]{buf: make([]T, n), mask: uint32(n - 1)}
}

func (q *ring[T]) len() int  { return int(q.tail - q.head) }
func (q *ring[T]) front() *T { return &q.buf[q.head&q.mask] }

// pushSlot appends an uninitialized slot and returns it for in-place
// fill, sparing a by-value copy of the wide elements. The slot retains
// the bytes of the element it last held after a wraparound, so callers
// must assign every field.
func (q *ring[T]) pushSlot() *T {
	p := &q.buf[q.tail&q.mask]
	q.tail++
	return p
}
func (q *ring[T]) popFront() { q.head++ }
func (q *ring[T]) clear()    { q.head = 0; q.tail = 0 }

// filterLive keeps only elements for which keep returns true, compacting
// the queue to the front of its buffer (order preserved, no allocation).
func (q *queue[T]) filterLive(keep func(T) bool) {
	out := q.buf[:0]
	for _, v := range q.buf[q.head:] {
		if keep(v) {
			out = append(out, v)
		}
	}
	q.buf = out
	q.head = 0
}
