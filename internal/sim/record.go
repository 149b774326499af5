package sim

import (
	"sync"

	"jointpm/internal/policy"
	"jointpm/internal/simtime"
)

// This file defines the record stream shared between the cache front-end
// (frontend.go) and the power back-end (replay.go). The stream is the
// complete interface between the two halves of a split run: everything
// the disk and memory power models consume, in the exact order the fused
// engine would have produced it, and nothing else. See DESIGN.md, "One
// cache pass, many disk policies".

// recChunk is the element count of one stream chunk. Chunks keep the
// buffers growable without ever copying recorded data (append of a
// []missRun would), and reusable across recordings via Release.
const recChunk = 1 << 14

// chunkList is an append-only chunked buffer. Grown chunks are retained
// on reset and reused, so a pooled Recording replayed over many sweep
// points stops allocating once it has seen the largest trace.
type chunkList[T any] struct {
	full  [][]T // filled chunks in order
	cur   []T   // chunk being appended to
	spare [][]T // empty chunks available for reuse
}

func (c *chunkList[T]) add(v T) {
	if len(c.cur) == cap(c.cur) {
		if c.cur != nil {
			c.full = append(c.full, c.cur)
		}
		if n := len(c.spare); n > 0 {
			c.cur = c.spare[n-1]
			c.spare = c.spare[:n-1]
		} else {
			c.cur = make([]T, 0, recChunk)
		}
	}
	c.cur = append(c.cur, v)
}

// reset empties the list, moving all chunks to the spare pool.
func (c *chunkList[T]) reset() {
	for _, ch := range c.full {
		c.spare = append(c.spare, ch[:0])
	}
	c.full = c.full[:0]
	if c.cur != nil {
		c.spare = append(c.spare, c.cur[:0])
		c.cur = nil
	}
}

// chunkCursor reads a chunkList front to back. Replays never read past
// what the front-end wrote (counts are recorded alongside), so overrun
// is a programming error and panics.
type chunkCursor[T any] struct {
	list *chunkList[T]
	ci   int // index into full; len(full) selects cur
	i    int
}

func (c *chunkCursor[T]) next() *T {
	for {
		var ch []T
		if c.ci < len(c.list.full) {
			ch = c.list.full[c.ci]
		} else {
			ch = c.list.cur
		}
		if c.i < len(ch) {
			v := &ch[c.i]
			c.i++
			return v
		}
		if c.ci >= len(c.list.full) {
			panic("sim: record stream cursor overrun")
		}
		c.ci++
		c.i = 0
	}
}

// missRun is one coalesced run of consecutive page misses, which the
// back-end turns into a single disk request of n pages.
type missRun struct {
	start int64 // first missed page
	n     int32 // consecutive pages in the run
}

// memOp is one memory power-model event: a bank touch, or (with opMark
// set) a lazy idle-disable of the bank. Ops replay in recorded order —
// the memory model accumulates static energy into one shared float, so
// the settle order across banks is part of bit-identical replay.
type memOp uint32

const opMark memOp = 1 << 31

// reqRec is one client request's front-end outcome: how many miss runs
// to submit to the disk and how many memory ops to apply, both read
// sequentially from their own streams. Requests with neither (pure
// no-page requests) are not recorded; the per-period clientReqs count
// carries them.
type reqRec struct {
	time simtime.Seconds
	runs int32
	ops  int32
}

// periodRec carries one adaptation period's request count and the
// counters the fused engine accumulates per access, so the back-end can
// reproduce Result fields and PeriodStats without replaying cache state.
type periodRec struct {
	end         simtime.Seconds
	reqs        int64 // reqRecs recorded inside this period
	clientReqs  int64 // client requests arrived (including empty ones)
	cacheAcc    int64 // page references
	misses      int64 // page misses (Σ run lengths)
	invalidated int64 // pages dropped by disable-policy invalidation
}

// CacheKey identifies one distinct memory configuration: the page-cache
// image two methods share iff their keys are equal. Disk policy is
// deliberately absent — disk latency cannot feed back into cache
// contents (see DESIGN.md).
type CacheKey struct {
	// Disable marks the timeout-disable memory policy, whose lazy
	// bank-invalidation changes cache contents.
	Disable bool
	// MemBytes is the effective cache size: the method's fixed size for
	// FM, the installed memory otherwise.
	MemBytes simtime.Bytes
}

// String renders the key for profiler labels and error messages.
func (k CacheKey) String() string {
	if k.Disable {
		return "DS-" + k.MemBytes.String()
	}
	return "NAP-" + k.MemBytes.String()
}

// SharedCacheKey returns the memory configuration governing method m's
// page-cache evolution, and whether m is eligible for the shared
// front-end at all. The joint method is not: it resizes the cache
// per-period from its own decisions, fusing cache and power state.
//
// The power-down policy shares the full-size key with plain nap methods:
// power-down retains data, so its cache image is identical to FM at
// installed size — only the replayed bank metering differs.
func SharedCacheKey(m policy.Method, installed simtime.Bytes) (CacheKey, bool) {
	if m.IsJoint() {
		return CacheKey{}, false
	}
	switch m.Mem {
	case policy.MemDisable:
		return CacheKey{Disable: true, MemBytes: installed}, true
	case policy.MemFixedNap:
		mb := m.MemBytes
		if mb <= 0 || mb > installed {
			mb = installed
		}
		return CacheKey{MemBytes: mb}, true
	case policy.MemPowerDown:
		return CacheKey{MemBytes: installed}, true
	}
	return CacheKey{}, false
}

// Recording is the cache front-end's output for one memory
// configuration: the disk-policy-independent half of a run, replayable
// against every disk policy via Replay. Obtain one with Record, release
// it with Release when every replay is done.
type Recording struct {
	cfg  Config   // defaulted config the recording was made under
	key  CacheKey // memory configuration the stream is valid for
	end  simtime.Seconds
	reqs chunkList[reqRec]
	runs chunkList[missRun]
	ops  chunkList[memOp]

	periods []periodRec
	tail    periodRec // counts after the last period boundary

	// Memory passes run so far (see Replay), and emptied ones from
	// earlier recordings for reuse.
	memMu     sync.Mutex
	mems      []*memPass
	spareMems []*memPass
}

// Key returns the memory configuration the recording captures.
func (rec *Recording) Key() CacheKey { return rec.key }

var recordingPool = sync.Pool{New: func() any { return new(Recording) }}

// Release returns the recording's buffers to the pool for reuse by a
// later Record call, and drops its memory passes, keeping their storage
// for the next recording's. The recording must not be used afterwards.
func (rec *Recording) Release() {
	rec.reqs.reset()
	rec.runs.reset()
	rec.ops.reset()
	rec.periods = rec.periods[:0]
	for _, mp := range rec.mems {
		*mp = memPass{bounds: mp.bounds[:0]}
	}
	rec.spareMems = append(rec.spareMems, rec.mems...)
	clear(rec.mems)
	rec.mems = rec.mems[:0]
	rec.cfg = Config{}
	rec.key = CacheKey{}
	rec.end = 0
	rec.tail = periodRec{}
	recordingPool.Put(rec)
}
