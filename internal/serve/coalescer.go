package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"hbtree/internal/keys"
)

// ErrClosed is returned for requests that a closed Coalescer can no
// longer serve: submissions after Close, and requests still pending
// when Close ran.
var ErrClosed = errors.New("serve: coalescer closed")

// ErrOverloaded is returned for requests shed by admission control: the
// coalescer's in-flight window is at Options.MaxPending and Options.Shed
// selected fail-fast over backpressure. The request was never queued;
// the caller may retry or degrade.
var ErrOverloaded = errors.New("serve: coalescer overloaded")

// Options configures a Coalescer.
type Options struct {
	// MaxBatch flushes a shard's batch as soon as it holds this many
	// requests; zero selects the tree's bucket size, so a full batch is
	// exactly one bucket of the heterogeneous search.
	MaxBatch int

	// Window is the linger deadline. Zero (the default) means no
	// linger: the first request of a batch wakes its shard's flusher,
	// which takes whatever has gathered by the time it runs, so batch
	// size follows load — requests that arrive while a flush is busy
	// form the next batch. A positive Window instead holds each batch
	// until its first request has waited this long (or the batch
	// fills); Go rounds sub-millisecond timers up to roughly a
	// millisecond on some hosts, so every lone request then pays that.
	Window time.Duration

	// Shards is the number of independent pending queues; submissions
	// are spread across them so concurrent producers do not serialise
	// on one lock, and each shard flushes on its own trigger (size, and
	// its free flusher or Window deadline). Zero selects GOMAXPROCS.
	// Use 1 to reproduce the single-queue discipline (deterministic
	// batch formation).
	Shards int

	// Queue is retained for compatibility with the channel-based
	// coalescer; the sharded implementation has no submission queue and
	// ignores it.
	Queue int

	// MaxPending bounds the coalescer's in-flight window: the number of
	// accepted requests whose result has not yet been delivered,
	// whether still in a forming batch or inside a flush. The bound is
	// one token pool shared by every queue shard, so its meaning does
	// not depend on Shards (or on GOMAXPROCS through it). Zero leaves
	// the window unbounded — the prior behaviour, where a deep client
	// pipeline makes tail latency a function of queue depth (the
	// ROADMAP's 52-110ms p99 at depth 512). With a bound, latency is
	// capped at roughly (MaxPending/MaxBatch + 1) flush spans.
	MaxPending int

	// Shed selects the response at the MaxPending bound: false (the
	// default) blocks the submitter until the window drains —
	// backpressure, the right mode for cooperating in-process clients;
	// true fails the excess request immediately with ErrOverloaded so
	// an external caller can retry against another replica or degrade.
	Shed bool

	// Unsorted makes flushes take the plain LookupBatchInto path instead
	// of the default sorted one: no key sort, no duplicate folding, one
	// full descent per query. It exists as the A/B baseline for the
	// shared-descent serving path (hbbench -unsorted) and for backends
	// whose batches are known hostile to sorting.
	Unsorted bool

	// DegradedPending is the fault-aware admission window: while the
	// backend reports Degraded (breaker open, batches answered by the
	// slower CPU fallback), the coalescer admits only this many undelivered
	// requests and fails the excess fast with ErrOverloaded — regardless
	// of Shed, since backpressure against a degraded backend just builds
	// the queue the bound exists to prevent. Zero selects MaxPending/2
	// (minimum 1); ignored when MaxPending is zero (an unbounded
	// coalescer has no window to shrink). The full MaxPending window is
	// restored the moment the backend recovers. Under adaptive admission
	// (TargetP99 set) the degraded bound is a clamp on the controller's
	// window, not a second mechanism: the effective window is
	// min(adaptive, DegradedPending) while the backend is degraded.
	DegradedPending int

	// TargetP99, when positive, turns on adaptive admission (DESIGN
	// §11): a closed-loop controller measures per-flush spans (first
	// enqueue to result delivery) and resizes the coalescer's admission
	// window online — AIMD, clamped to [MinPending, MaxPending] — to
	// hold this latency target. Adaptive admission always sheds at the
	// window (fail-fast with a typed OverloadError carrying a
	// retry-after hint) regardless of Shed: backpressure would hide the
	// very signal the controller regulates. Zero (the default) keeps
	// the static MaxPending/Shed behaviour exactly as before. When set
	// with MaxPending zero, MaxPending defaults to 4096.
	TargetP99 time.Duration

	// MinPending is the adaptive window's floor: the controller never
	// shrinks below it, so a transient latency spike cannot collapse
	// admission entirely. Zero selects MaxPending/64 (minimum 1).
	// Ignored without TargetP99.
	MinPending int

	// FlushStall, when positive, sleeps this long under a
	// coalescer-wide mutex before every flush's backend call — a
	// serialized stall modelling device occupancy, which gives the
	// coalescer a deterministic capacity of MaxBatch/FlushStall
	// requests per second regardless of host speed. Benchmark and test
	// hook only; zero (the default) is a no-op.
	FlushStall time.Duration
}

// Result is the outcome of one coalesced lookup.
type Result[K keys.Key] struct {
	Value K
	Found bool
	Err   error
}

// pending is one shard's forming batch plus the result staging its
// flush writes into. Instances are pooled: a flusher returns its batch
// to the pool once every caller's result has been delivered.
type pending[K keys.Key] struct {
	keys    []K
	replies []chan Result[K] // nil for a slot submitted by a burst
	values  []K
	found   []bool

	// Burst slots (SubmitBatch): bursts[i] is the burst that submitted
	// key i and bidx[i] the key's position in it. Both stay empty while
	// the batch holds only single-key submissions, so the Submit path
	// pays nothing for them; the first burst to join pads them with nil
	// entries for the slots already taken.
	bursts []*burst[K]
	bidx   []int32
	fin    []*burst[K] // bursts this batch answered last, woken after its tokens return

	// Sorted-flush staging: each sorted slot's submission position and
	// the sorted-slot-to-unique-slot map after duplicate folding. Both
	// pooled with the batch, so the sorted flush allocates nothing. The
	// keys themselves are sorted in place — the batch is detached from
	// its shard before flushing and the submission order is recoverable
	// through perm, so no second key array is needed.
	perm []int32
	uref []int32
	// sref maps each submission slot to its unique slot after a sorted
	// flush, so burst slots are answered in submission order, one burst
	// lock per run of slots.
	sref []int32

	// t0 is the batch's first-enqueue time, armed only under adaptive
	// admission: the flush span time.Since(t0) is the latency the
	// batch's oldest request observed, the controller's input signal.
	t0 time.Time
}

// shard is one independent pending queue with its own flusher
// goroutine, which a batch's first request wakes through kick (Window
// zero) or by re-arming the shard's deadline timer (positive Window).
// The timer is created once (Go 1.23 timer semantics make Reset/Stop
// race-free without channel draining).
type shard[K keys.Key] struct {
	mu     sync.Mutex
	cur    *pending[K] // nil after close
	timer  *time.Timer
	kick   chan struct{} // capacity 1: one wake-up pending is enough
	closed bool
}

// tokenPool is the coalescer-wide admission window: one count of
// accepted-but-undelivered requests shared by every queue shard, so
// MaxPending bounds the whole coalescer whatever the queue count.
// Tokens are taken before any shard lock (a blocked submitter must not
// hold the lock a flusher needs) and returned after result delivery.
type tokenPool struct {
	used atomic.Int64

	// waiters counts submitters parked for room in backpressure mode;
	// release wakes them by closing wake and installing a fresh channel,
	// which only happens while someone waits.
	waiters atomic.Int32
	mu      sync.Mutex
	wake    chan struct{}
}

// take acquires up to n tokens without lifting the pool past limit and
// returns how many it got.
func (tp *tokenPool) take(n, limit int) int {
	for {
		u := tp.used.Load()
		room := int64(limit) - u
		if room <= 0 {
			return 0
		}
		k := min(int64(n), room)
		if tp.used.CompareAndSwap(u, u+k) {
			return int(k)
		}
	}
}

// takeWait is take that parks until at least one token is free: the
// backpressure mode. It gives up with ErrClosed when done closes and
// with ErrDeadlineExceeded when ctx expires.
func (tp *tokenPool) takeWait(ctx context.Context, done <-chan struct{}, n, limit int) (int, error) {
	if k := tp.take(n, limit); k > 0 {
		return k, nil
	}
	tp.waiters.Add(1)
	defer tp.waiters.Add(-1)
	for {
		// Load the wake channel before re-checking, so a release that
		// lands after the check closes the channel this waiter holds.
		tp.mu.Lock()
		wake := tp.wake
		tp.mu.Unlock()
		if k := tp.take(n, limit); k > 0 {
			return k, nil
		}
		select {
		case <-wake:
		case <-done:
			return 0, ErrClosed
		case <-ctx.Done():
			return 0, ErrDeadlineExceeded
		}
	}
}

// release returns n tokens and wakes any parked submitter.
func (tp *tokenPool) release(n int) {
	tp.used.Add(-int64(n))
	if tp.waiters.Load() > 0 {
		tp.mu.Lock()
		close(tp.wake)
		tp.wake = make(chan struct{})
		tp.mu.Unlock()
	}
}

// Coalescer collects point lookups arriving from many goroutines into
// batches and serves each batch with one Server.LookupBatchInto call —
// the request-coalescing discipline that recovers the paper's batched
// throughput from a point-request workload. Submissions are spread
// round-robin over independent shards. A shard's batch is flushed
// inline by the submitter that fills it to MaxBatch; otherwise the
// shard's flusher goroutine takes it. By default the flusher is woken
// by the batch's first request and takes whatever has gathered by the
// time it runs — while it flushes, the next batch forms behind it, so
// batches grow with load and a lone request never lingers. With a
// positive Options.Window the flusher instead waits until the batch's
// oldest request has waited that long.
//
// With Options.MaxPending set, the coalescer admits at most that many
// undelivered requests across all its shards; excess submissions block
// for backpressure or, with Options.Shed, fail fast with ErrOverloaded
// — the admission control that keeps tail latency bounded under deep
// client pipelines.
//
// Close stops intake: later submissions fail fast with ErrClosed, and
// requests still pending when Close runs are failed with ErrClosed
// rather than left hanging. A batch already being flushed completes
// normally.
type Coalescer[K keys.Key] struct {
	be  Backend[K]
	opt Options

	// degPending is the resolved degraded-mode admission bound (0 when
	// MaxPending is unbounded).
	degPending int

	shards []shard[K]
	next   atomic.Uint64 // round-robin shard cursor

	// pool is the admission window (nil when MaxPending is unbounded).
	pool *tokenPool

	batchPool sync.Pool // *pending[K]
	replyPool sync.Pool // chan Result[K], capacity 1
	burstPool sync.Pool // *burst[K]

	done      chan struct{} // closed when Close runs; stops the flushers
	closeOnce sync.Once
	wg        sync.WaitGroup

	batches   atomic.Int64 // batches flushed
	queries   atomic.Int64 // requests served through batches
	folded    atomic.Int64 // duplicate keys folded out of sorted flushes
	shed      atomic.Int64 // requests refused with ErrOverloaded
	degShed   atomic.Int64 // of those, refused by fault-aware admission
	deadlines atomic.Int64 // requests abandoned with ErrDeadlineExceeded

	// Adaptive admission state (DESIGN §11). ctl is nil when TargetP99
	// is unset, which keeps the static admission path untouched.
	// overload caches the current typed shed error so the shed path
	// hands out an immutable value instead of allocating per request;
	// shedRate is the windowed sheds/sec tracker behind ShedRate().
	ctl      *controller
	overload atomic.Pointer[OverloadError]
	shedRate rateTracker

	// stallMu serializes Options.FlushStall sleeps across all shards so
	// the stall models one shared device, not one per queue.
	stallMu sync.Mutex
}

// NewCoalescer starts a coalescer over a backend — a Server or a
// ShardedServer's coalescing adapter. The caller must Close it to stop
// the per-shard flusher goroutines.
func NewCoalescer[K keys.Key](be Backend[K], opt Options) *Coalescer[K] {
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = be.Options().BucketSize
	}
	if opt.Shards <= 0 {
		opt.Shards = runtime.GOMAXPROCS(0)
	}
	if opt.TargetP99 > 0 {
		// Adaptive admission needs a bounded window to resize.
		if opt.MaxPending <= 0 {
			opt.MaxPending = 4096
		}
		if opt.MinPending <= 0 {
			opt.MinPending = opt.MaxPending / 64
		}
		if opt.MinPending < 1 {
			opt.MinPending = 1
		}
		if opt.MinPending > opt.MaxPending {
			opt.MinPending = opt.MaxPending
		}
	}
	if opt.MaxPending > 0 {
		if opt.DegradedPending <= 0 {
			opt.DegradedPending = opt.MaxPending / 2
		}
		if opt.DegradedPending < 1 {
			opt.DegradedPending = 1
		}
	}
	c := &Coalescer[K]{
		be:         be,
		opt:        opt,
		degPending: opt.DegradedPending,
		shards:     make([]shard[K], opt.Shards),
		done:       make(chan struct{}),
	}
	if opt.TargetP99 > 0 {
		c.ctl = newController(opt)
	}
	// The cached shed error: static coalescers hint one coalescing
	// window, floored at 1ms (the pre-adaptive retry advice); adaptive
	// steps refresh it with the live drain estimate.
	ra := opt.Window
	if ra < time.Millisecond {
		ra = time.Millisecond
	}
	c.overload.Store(&OverloadError{RetryAfter: ra})
	if opt.MaxPending > 0 {
		c.pool = &tokenPool{wake: make(chan struct{})}
	}
	c.batchPool.New = func() any {
		p := &pending[K]{
			keys:    make([]K, 0, opt.MaxBatch),
			replies: make([]chan Result[K], 0, opt.MaxBatch),
			values:  make([]K, opt.MaxBatch),
			found:   make([]bool, opt.MaxBatch),
		}
		if !opt.Unsorted {
			p.perm = make([]int32, opt.MaxBatch)
			p.uref = make([]int32, opt.MaxBatch)
		}
		return p
	}
	c.replyPool.New = func() any { return make(chan Result[K], 1) }
	c.burstPool.New = func() any { return newBurst[K]() }
	for i := range c.shards {
		sh := &c.shards[i]
		sh.cur = c.getBatch()
		sh.timer = time.NewTimer(time.Hour)
		sh.timer.Stop()
		sh.kick = make(chan struct{}, 1)
		c.wg.Add(1)
		go c.flusher(sh)
	}
	return c
}

func (c *Coalescer[K]) getBatch() *pending[K] {
	p := c.batchPool.Get().(*pending[K])
	p.keys = p.keys[:0]
	p.replies = p.replies[:0]
	clear(p.bursts) // don't pin delivered bursts from the pool
	p.bursts = p.bursts[:0]
	p.bidx = p.bidx[:0]
	p.t0 = time.Time{}
	return p
}

// Submit enqueues one lookup and returns the channel its Result will be
// delivered on. The channel receives exactly one Result; after Close it
// receives ErrClosed, and past the admission bound in shed mode it
// receives ErrOverloaded.
func (c *Coalescer[K]) Submit(key K) <-chan Result[K] {
	reply := make(chan Result[K], 1)
	if err := c.submit(key, reply); err != nil {
		reply <- Result[K]{Err: err}
	}
	return reply
}

// Lookup submits one query and blocks for its coalesced result. The
// reply cell is pooled, so the steady-state path allocates nothing.
func (c *Coalescer[K]) Lookup(key K) (K, bool, error) {
	reply := c.replyPool.Get().(chan Result[K])
	if err := c.submit(key, reply); err != nil {
		c.replyPool.Put(reply)
		var zero K
		return zero, false, err
	}
	res := <-reply
	c.replyPool.Put(reply)
	return res.Value, res.Found, res.Err
}

// LookupCtx is Lookup with a caller deadline covering both admission
// (a backpressure wait at the MaxPending bound) and the parked wait for
// the coalesced result. An expired request returns ErrDeadlineExceeded
// and is abandoned: its slot in the forming batch still flushes, but
// nobody waits on the reply. Abandoned reply cells are not pooled (the
// late flush still writes into them, cap 1 makes that non-blocking), so
// this path allocates — use plain Lookup when no deadline is needed.
func (c *Coalescer[K]) LookupCtx(ctx context.Context, key K) (K, bool, error) {
	if ctx.Done() == nil {
		return c.Lookup(key)
	}
	var zero K
	reply := make(chan Result[K], 1)
	if err := c.submitCtx(ctx, key, reply); err != nil {
		return zero, false, err
	}
	select {
	case res := <-reply:
		return res.Value, res.Found, res.Err
	case <-ctx.Done():
		c.deadlines.Add(1)
		return zero, false, ErrDeadlineExceeded
	}
}

// submit appends the request to a shard's forming batch, arming the
// shard's flush trigger on the batch's first request and flushing
// inline when the batch fills. A non-nil error (ErrClosed,
// ErrOverloaded) means the request was not queued and nothing will be
// delivered on reply.
func (c *Coalescer[K]) submit(key K, reply chan Result[K]) error {
	return c.submitCtx(context.Background(), key, reply)
}

// submitCtx is submit with a deadline on the backpressure wait: a
// submitter blocked at the MaxPending bound gives up with
// ErrDeadlineExceeded when ctx expires (context.Background's nil Done
// channel makes the extra select case free for undeadlined callers).
func (c *Coalescer[K]) submitCtx(ctx context.Context, key K, reply chan Result[K]) error {
	sh := &c.shards[c.next.Add(1)%uint64(len(c.shards))]
	if c.pool != nil {
		if _, err := c.admit(ctx, 1); err != nil {
			return err
		}
	}
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		c.releaseSlots(1)
		return ErrClosed
	}
	p := sh.cur
	p.keys = append(p.keys, key)
	p.replies = append(p.replies, reply)
	if len(p.bursts) > 0 {
		p.bursts = append(p.bursts, nil)
		p.bidx = append(p.bidx, 0)
	}
	if len(p.keys) >= c.opt.MaxBatch {
		// The submitter that filled the batch flushes it inline: the
		// shard gets a fresh batch and the lock is dropped before the
		// heterogeneous search runs.
		sh.cur = c.getBatch()
		sh.timer.Stop()
		sh.mu.Unlock()
		c.flush(p)
		return nil
	}
	if len(p.keys) == 1 {
		c.armLocked(sh, p)
	}
	sh.mu.Unlock()
	return nil
}

// armLocked starts the flush trigger for batch p, whose first request
// just landed on shard sh (sh.mu held): with no Window it wakes the
// shard's flusher — a non-blocking send, since a kick already pending
// will be taken before the flusher next reads sh.cur — and with a
// Window it arms the deadline timer.
func (c *Coalescer[K]) armLocked(sh *shard[K], p *pending[K]) {
	if c.ctl != nil {
		p.t0 = time.Now()
	}
	if c.opt.Window > 0 {
		sh.timer.Reset(c.opt.Window)
		return
	}
	select {
	case sh.kick <- struct{}{}:
	default:
	}
}

// admit charges n requests against the admission window (c.pool must be
// non-nil) and returns how many were admitted. A non-nil error is the
// answer for the n-k requests that were not: ErrOverloaded when shed
// (counted in Shed), ErrClosed, or ErrDeadlineExceeded (counted in
// Deadlines) when a backpressure wait gave up. In backpressure mode a
// nil error with k < n means the caller must come back for the rest.
func (c *Coalescer[K]) admit(ctx context.Context, n int) (int, error) {
	if c.ctl != nil {
		// Adaptive admission: the effective window is the controller's
		// live value, clamped to DegradedPending while the backend is
		// degraded (the breaker path composes as a clamp on the same
		// window, not a second mechanism). Past the window the excess
		// always fails fast with the cached typed error — backpressure
		// would hide the latency signal the controller regulates. The
		// window never exceeds MaxPending, which stays the hard cap.
		w := int(c.ctl.window.Load())
		eff, clamped := w, false
		if eff > c.degPending && int(c.pool.used.Load())+n > c.degPending && c.be.Degraded() {
			eff, clamped = c.degPending, true
		}
		k := c.pool.take(n, eff)
		if k == n {
			return k, nil
		}
		deg := 0
		if clamped {
			// The clamp's share of the sheds: those the unclamped window
			// would still have had room for.
			deg = min(n-k, max(0, w-int(c.pool.used.Load())))
		}
		c.noteShed(n-k, deg)
		return k, c.overloadErr()
	}
	// Fault-aware admission: while the backend is degraded, the
	// effective window shrinks to DegradedPending and the excess fails
	// fast — even in backpressure mode, since queueing against the
	// slower fallback path only builds the backlog the bound exists to
	// prevent. The cheap length check runs first so the healthy path
	// never pays for the breaker-state load.
	if int(c.pool.used.Load())+n > c.degPending && c.be.Degraded() {
		k := c.pool.take(n, c.degPending)
		if k < n {
			c.noteShed(n-k, n-k)
			return k, c.overloadErr()
		}
		return k, nil
	}
	if c.opt.Shed {
		k := c.pool.take(n, c.opt.MaxPending)
		if k < n {
			c.noteShed(n-k, 0)
			return k, c.overloadErr()
		}
		return k, nil
	}
	k, err := c.pool.takeWait(ctx, c.done, n, c.opt.MaxPending)
	if err == ErrDeadlineExceeded {
		c.deadlines.Add(int64(n))
	}
	return k, err
}

// flusher is a shard's flush goroutine: woken by a kick (Window zero)
// or by the shard's deadline timer (positive Window), it flushes
// whatever has accumulated by then. Requests arriving during the flush
// start the next batch and kick again, so the flusher picks that batch
// up as soon as it is free. An empty or already-stolen batch is a
// benign wakeup.
func (c *Coalescer[K]) flusher(sh *shard[K]) {
	defer c.wg.Done()
	for {
		select {
		case <-sh.kick:
			// The kick readied this goroutine on the submitter's P, where
			// it would run the moment the submitter parks and flush a
			// batch of one. Yielding once lets callers that are already
			// runnable join the batch first; with nothing else runnable
			// it costs one scheduler pass, not a timer.
			runtime.Gosched()
		case <-sh.timer.C:
		case <-c.done:
			return
		}
		sh.mu.Lock()
		p := sh.cur
		if sh.closed || len(p.keys) == 0 {
			sh.mu.Unlock()
			continue
		}
		sh.cur = c.getBatch()
		sh.mu.Unlock()
		c.flush(p)
	}
}

// flush serves one batch with the allocation-free batch search and
// distributes each caller's result, then recycles the batch and
// releases its admission window tokens.
//
// The default sorted flush presorts the keys (tracking each key's
// submission position), folds exact duplicates into one batch slot, and
// hands the backend a sorted duplicate-free batch — which the
// shared-descent search resolves at one node probe per distinct node
// per level, and which decomposes into one contiguous run per shard on
// a sharded backend. Each unique result fans back out to every waiter
// that submitted that key.
func (c *Coalescer[K]) flush(p *pending[K]) {
	n := len(p.keys)
	t0 := p.t0
	if c.opt.FlushStall > 0 {
		// The serialized stall models device occupancy: one flush at a
		// time holds the "device" for FlushStall, so the coalescer's
		// capacity is exactly MaxBatch/FlushStall regardless of host.
		c.stallMu.Lock()
		time.Sleep(c.opt.FlushStall)
		c.stallMu.Unlock()
	}
	values, found := p.values[:n], p.found[:n]
	if c.opt.Unsorted {
		_, err := c.be.LookupBatchInto(p.keys, values, found)
		if err != nil {
			c.fail(p, err)
			return
		}
		if len(p.bursts) > 0 {
			c.deliver(p, values, found, nil, nil)
		} else {
			for i, reply := range p.replies {
				reply <- Result[K]{Value: values[i], Found: found[i]}
			}
		}
		c.batches.Add(1)
		c.queries.Add(int64(n))
		c.releaseSlots(n)
		c.wake(p)
		c.batchPool.Put(p)
		c.noteFlushSpan(t0)
		return
	}

	skeys, perm, uref := p.keys, p.perm[:n], p.uref[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	keys.SortWithPerm(skeys, perm)
	u := 0
	var last K
	for i := 0; i < n; i++ {
		k := skeys[i]
		if u > 0 && k == last {
			uref[i] = int32(u - 1)
			continue
		}
		skeys[u] = k
		uref[i] = int32(u)
		last = k
		u++
	}

	_, err := c.be.LookupBatchSortedInto(skeys[:u], values[:u], found[:u])
	if err != nil {
		c.fail(p, err)
		return
	}
	if len(p.bursts) > 0 {
		if p.sref == nil {
			p.sref = make([]int32, c.opt.MaxBatch)
		}
		sref := p.sref[:n]
		for i := 0; i < n; i++ {
			sref[perm[i]] = uref[i]
		}
		c.deliver(p, values, found, sref, nil)
	} else {
		for i := 0; i < n; i++ {
			j := uref[i]
			p.replies[perm[i]] <- Result[K]{Value: values[j], Found: found[j]}
		}
	}
	c.batches.Add(1)
	c.queries.Add(int64(n))
	c.folded.Add(int64(n - u))
	c.releaseSlots(n)
	c.wake(p)
	c.batchPool.Put(p)
	c.noteFlushSpan(t0)
}

// fail delivers err to every caller in the batch and recycles it. The
// span still feeds the controller: a failed flush occupied the pipeline
// just the same.
func (c *Coalescer[K]) fail(p *pending[K], err error) {
	t0 := p.t0
	if len(p.bursts) > 0 {
		c.deliver(p, nil, nil, nil, err)
	} else {
		for _, reply := range p.replies {
			reply <- Result[K]{Err: err}
		}
	}
	c.releaseSlots(len(p.keys))
	c.wake(p)
	c.batchPool.Put(p)
	c.noteFlushSpan(t0)
}

// releaseSlots returns n admission tokens to the window once their
// requests' results have been delivered.
func (c *Coalescer[K]) releaseSlots(n int) {
	if c.pool != nil {
		c.pool.release(n)
	}
}

// Close stops intake, fails all pending requests with ErrClosed and
// waits for the flushers to exit. A batch already being flushed
// completes normally. Close is idempotent.
func (c *Coalescer[K]) Close() {
	c.closeOnce.Do(func() {
		close(c.done)
		for i := range c.shards {
			sh := &c.shards[i]
			sh.mu.Lock()
			sh.closed = true
			p := sh.cur
			sh.cur = nil
			sh.timer.Stop()
			sh.mu.Unlock()
			if p != nil && len(p.keys) > 0 {
				c.fail(p, ErrClosed)
			}
		}
	})
	c.wg.Wait()
}

// Batches returns the number of flushed batches.
func (c *Coalescer[K]) Batches() int64 { return c.batches.Load() }

// Queries returns the number of requests served through batches.
func (c *Coalescer[K]) Queries() int64 { return c.queries.Load() }

// Folded returns how many duplicate keys were folded into an already-
// occupied batch slot by sorted flushes: identical keys in one window
// cost one descent, and the single result fans out to every waiter.
func (c *Coalescer[K]) Folded() int64 { return c.folded.Load() }

// Shed returns how many requests were refused with ErrOverloaded,
// including those refused by fault-aware admission.
func (c *Coalescer[K]) Shed() int64 { return c.shed.Load() }

// DegradedShed returns how many requests were refused because the
// backend was degraded and the shrunken admission window was full.
func (c *Coalescer[K]) DegradedShed() int64 { return c.degShed.Load() }

// Deadlines returns how many requests were abandoned with
// ErrDeadlineExceeded.
func (c *Coalescer[K]) Deadlines() int64 { return c.deadlines.Load() }
