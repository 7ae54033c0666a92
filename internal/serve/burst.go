package serve

import (
	"context"
	"errors"
	"sync"

	"hbtree/internal/keys"
)

// errPending marks a burst key that has not been answered yet.
var errPending = errors.New("serve: pending")

// burst is one SubmitBatch call's shared reply cell. Flushes write each
// answered key straight into the caller's slices under mu, one lock per
// run of the burst's slots in a batch, and the delivery that answers
// the last key wakes the caller once. Bursts are pooled with their
// scratch; one whose caller gave up on a deadline is abandoned to the
// collector instead, because a late flush still holds a pointer to it.
type burst[K keys.Key] struct {
	keys  []K
	vals  []K
	found []bool
	errs  []error

	mu        sync.Mutex
	left      int  // keys not yet answered
	abandoned bool // the caller's deadline expired; flushes write nothing more
	done      chan struct{}

	pos []int32 // submission positions, grouped by shard on the sharded coalescer
	grp []int32 // each key's shard group (sharded coalescer)
	cnt []int32 // group run boundaries (sharded coalescer)
}

func newBurst[K keys.Key]() *burst[K] { return &burst[K]{done: make(chan struct{}, 1)} }

// start binds the burst to the caller's slices and marks every key
// pending. vals, found and errs must be at least as long as keys.
func (b *burst[K]) start(keys, vals []K, found []bool, errs []error) {
	n := len(keys)
	b.keys, b.vals, b.found, b.errs = keys, vals[:n], found[:n], errs[:n]
	for i := range b.errs {
		b.errs[i] = errPending
	}
	b.left = n
	b.abandoned = false
	if cap(b.pos) < n {
		b.pos = make([]int32, n)
	}
	b.pos = b.pos[:n]
}

// release unbinds the caller's slices so the pool does not pin them.
func (b *burst[K]) release() {
	b.keys, b.vals, b.found, b.errs = nil, nil, nil, nil
}

// resolve answers the keys at pos with err on the caller's side (shed,
// closed, or out of time before they were queued).
func (b *burst[K]) resolve(pos []int32, err error) {
	if len(pos) == 0 {
		return
	}
	b.mu.Lock()
	if !b.abandoned {
		for _, i := range pos {
			b.errs[i] = err
		}
	}
	fin := b.settleLocked(len(pos))
	b.mu.Unlock()
	if fin {
		b.done <- struct{}{}
	}
}

// settleLocked counts n keys answered and reports whether they were the
// last; the caller then sends the single wake-up after unlocking.
func (b *burst[K]) settleLocked(n int) bool {
	b.left -= n
	return b.left == 0
}

// wait blocks until every key is answered or ctx expires. On expiry the
// unanswered keys get ErrDeadlineExceeded and the burst is abandoned;
// wait returns how many keys that hit and whether the burst may be
// pooled again.
func (b *burst[K]) wait(ctx context.Context) (expired int, reusable bool) {
	if ctx.Done() == nil {
		<-b.done
		return 0, true
	}
	select {
	case <-b.done:
		return 0, true
	case <-ctx.Done():
	}
	b.mu.Lock()
	if b.left == 0 {
		// Answered in the race with the deadline: the wake-up is on its
		// way; take it so the burst can be pooled.
		b.mu.Unlock()
		<-b.done
		return 0, true
	}
	b.abandoned = true
	for i, err := range b.errs {
		if err == errPending {
			b.errs[i] = ErrDeadlineExceeded
			expired++
		}
	}
	b.mu.Unlock()
	return expired, false
}

// SubmitBatch looks up a burst of keys and blocks until every key is
// answered, filling vals, found and errs (each at least len(keys) long)
// position by position. A key whose errs entry is nil was served; the
// others failed like a single Lookup would — ErrOverloaded when shed,
// ErrClosed, or ErrDeadlineExceeded once ctx expires (those keys count
// in Deadlines).
//
// The burst is charged against admission once: in shed mode the keys
// past the window are refused one by one while the rest are served; in
// backpressure mode the caller waits for room in as many rounds as it
// takes. The admitted keys join one queue shard's forming batch under
// one lock per sub-batch — a burst larger than the room left splits
// across flushes, filled batches flush inline — and the caller is woken
// once, when its last key is answered. No per-key reply channel is
// allocated, so a warm burst allocates nothing.
func (c *Coalescer[K]) SubmitBatch(ctx context.Context, keys, vals []K, found []bool, errs []error) {
	if len(keys) == 0 {
		return
	}
	b := c.burstPool.Get().(*burst[K])
	b.start(keys, vals, found, errs)
	for i := range b.pos {
		b.pos[i] = int32(i)
	}
	c.enqueue(ctx, b, b.pos)
	expired, reusable := b.wait(ctx)
	c.deadlines.Add(int64(expired))
	if reusable {
		b.release()
		c.burstPool.Put(b)
	}
}

// enqueue admits the burst keys at pos and appends them to one queue
// shard, resolving on the caller's side every key that could not be
// queued.
//
// The queue is the one the burst's first key hashes to, not the next
// one of the round-robin cursor: callers that each keep one burst in
// flight would otherwise be dealt to distinct queues in turn and, with
// as many callers as queues, never share a flush.
func (c *Coalescer[K]) enqueue(ctx context.Context, b *burst[K], pos []int32) {
	h := uint64(b.keys[pos[0]]) * 0x9e3779b97f4a7c15 // Fibonacci hashing
	sh := &c.shards[(h>>32)%uint64(len(c.shards))]
	for len(pos) > 0 {
		k, err := len(pos), error(nil)
		if c.pool != nil {
			k, err = c.admit(ctx, len(pos))
		}
		if k > 0 {
			if rest := c.appendBurst(sh, b, pos[:k]); len(rest) > 0 {
				c.releaseSlots(len(rest))
				b.resolve(pos[k-len(rest):], ErrClosed)
				return
			}
			pos = pos[k:]
		}
		if err != nil {
			b.resolve(pos, err)
			return
		}
	}
}

// appendBurst adds the burst keys at pos to the shard's forming batch,
// one lock per sub-batch, flushing inline each batch it fills. It
// returns the positions it could not queue because the shard closed.
func (c *Coalescer[K]) appendBurst(sh *shard[K], b *burst[K], pos []int32) []int32 {
	for len(pos) > 0 {
		sh.mu.Lock()
		if sh.closed {
			sh.mu.Unlock()
			return pos
		}
		p := sh.cur
		first := len(p.keys) == 0
		for len(p.bursts) < len(p.keys) {
			p.bursts = append(p.bursts, nil)
			p.bidx = append(p.bidx, 0)
		}
		m := min(c.opt.MaxBatch-len(p.keys), len(pos))
		for _, i := range pos[:m] {
			p.keys = append(p.keys, b.keys[i])
			p.replies = append(p.replies, nil)
			p.bursts = append(p.bursts, b)
			p.bidx = append(p.bidx, i)
		}
		pos = pos[m:]
		if len(p.keys) >= c.opt.MaxBatch {
			sh.cur = c.getBatch()
			sh.timer.Stop()
			sh.mu.Unlock()
			c.flush(p)
			continue
		}
		if first {
			c.armLocked(sh, p)
		}
		sh.mu.Unlock()
	}
	return nil
}

// deliver answers every slot of a batch that holds burst slots, in
// submission order: single-key slots on their reply channels, burst
// slots straight into the burst's slices under one lock per run. With
// err set every slot fails with it; otherwise slot j's result is
// values[sref[j]] (values[j] when sref is nil). Bursts whose last key
// this batch answered are collected in p.fin and woken by wake, once
// the batch's tokens are back in the window.
func (c *Coalescer[K]) deliver(p *pending[K], values []K, found []bool, sref []int32, err error) {
	n := len(p.keys)
	for j := 0; j < n; {
		b := p.bursts[j]
		if b == nil {
			if err != nil {
				p.replies[j] <- Result[K]{Err: err}
			} else {
				u := j
				if sref != nil {
					u = int(sref[j])
				}
				p.replies[j] <- Result[K]{Value: values[u], Found: found[u]}
			}
			j++
			continue
		}
		b.mu.Lock()
		k := j
		for ; k < n && p.bursts[k] == b; k++ {
			if b.abandoned {
				continue
			}
			i := p.bidx[k]
			if err != nil {
				b.errs[i] = err
				continue
			}
			u := k
			if sref != nil {
				u = int(sref[k])
			}
			b.vals[i], b.found[i], b.errs[i] = values[u], found[u], nil
		}
		if b.settleLocked(k - j) {
			p.fin = append(p.fin, b)
		}
		b.mu.Unlock()
		j = k
	}
}

// wake sends each burst finished by the batch its single wake-up.
func (c *Coalescer[K]) wake(p *pending[K]) {
	for i, b := range p.fin {
		b.done <- struct{}{}
		p.fin[i] = nil
	}
	p.fin = p.fin[:0]
}
