// Snapshot codec: the daemon's warm-restart checkpoint file.
//
// Layout (all little-endian):
//
//	magic "JPMS" | version u8 | payloadLen u64 | payload | crc32(payload) u32
//
// The payload is a shard count followed by one record per shard: its
// identity and stream position, the hit model's counters for the open
// period, and the manager's whole core.State — the last decision, the
// extended-LRU stack (page list in recency order plus lifetime counters)
// and the open period as the depth histogram holds it
// (lrusim.HistState). Integers are uvarints; floats are fixed 8-byte bit
// patterns, so times and gaps restore bit-identical.
//
// The reader accepts exactly one version, snapshotVersion. A new field
// costs one write, one read and a version bump; a file of any other
// version is refused like a corrupt one, and the daemon starts cold.
//
// The file is written atomically: payload to a temp file in the same
// directory, fsync, then rename over the target. A crash mid-write
// leaves the previous checkpoint intact; a torn rename is impossible on
// POSIX. Readers reject anything with a bad magic, version, length, or
// checksum, so a partial or corrupted file degrades to a cold start,
// never a wrong restore.
package serve

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"

	"jointpm/internal/core"
	"jointpm/internal/lrusim"
	"jointpm/internal/simtime"
)

const (
	snapshotMagic = "JPMS"

	// snapshotVersion is the one version the reader accepts.
	snapshotVersion = 6
)

// errNoSnapshot marks "no checkpoint exists yet" — a cold start.
var errNoSnapshot = errors.New("serve: no snapshot")

// shardState is one shard's snapshot payload.
type shardState struct {
	Name         string
	PeriodIdx    int64
	Consumed     int64
	NextBoundary float64
	CurBanks     int64
	CurPages     int64
	// The hit model's counters for the open period: page references,
	// predicted misses and coalesced disk requests.
	CacheAcc, Misses, ReqRuns int64
	// RefitDrift is the drift-hold fraction the shard's manager ran with,
	// so a warm restart keeps the checkpointed mode whatever the restarted
	// process's flags.
	RefitDrift float64
	// BudgetW is the fleet power budget the shard ran under; 0 means
	// uncapped.
	BudgetW float64
	Core    core.State // the manager's state, stack and open period included
}

type payloadWriter struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (w *payloadWriter) uv(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *payloadWriter) i(v int64) { w.uv(uint64(v)) }

func (w *payloadWriter) f64(v float64) {
	binary.LittleEndian.PutUint64(w.tmp[:8], math.Float64bits(v))
	w.buf.Write(w.tmp[:8])
}

func (w *payloadWriter) str(s string) {
	w.uv(uint64(len(s)))
	w.buf.WriteString(s)
}

func (w *payloadWriter) flag(b bool) {
	if b {
		w.buf.WriteByte(1)
	} else {
		w.buf.WriteByte(0)
	}
}

// encodePayload serialises the shards in the snapshotVersion layout.
func encodePayload(states []shardState) []byte {
	w := &payloadWriter{}
	w.uv(uint64(len(states)))
	for i := range states {
		st := &states[i]
		w.str(st.Name)
		for _, v := range []int64{st.PeriodIdx, st.Consumed} {
			w.i(v)
		}
		w.f64(st.NextBoundary)
		for _, v := range []int64{st.CurBanks, st.CurPages, st.CacheAcc, st.Misses, st.ReqRuns} {
			w.i(v)
		}
		w.f64(st.RefitDrift)
		w.f64(st.BudgetW)
		w.core(&st.Core)
	}
	return w.buf.Bytes()
}

func (w *payloadWriter) core(c *core.State) {
	w.i(int64(c.Banks))
	w.i(c.Pages)
	w.f64(float64(c.Timeout))
	w.flag(c.Fallback)
	w.i(int64(c.Level))
	// Map iteration stays out of the payload: counters go sorted by name.
	keys := make([]string, 0, len(c.Counters))
	for k := range c.Counters {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.uv(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
		w.i(c.Counters[k])
	}
	w.uv(uint64(len(c.StackPages)))
	for _, p := range c.StackPages {
		w.i(p)
	}
	w.i(c.StackRefs)
	w.i(c.StackColds)

	o := &c.Open
	w.i(o.BankPages)
	w.i(int64(o.MaxBanks))
	w.i(int64(o.MinKeep))
	w.f64(float64(o.Window))
	w.i(o.Cold)
	w.i(o.MaxDepth)
	for _, s := range [][]int64{o.Counts, o.First} {
		w.uv(uint64(len(s)))
		for _, v := range s {
			w.i(v)
		}
	}
	w.flag(o.HasPending)
	if o.HasPending {
		w.f64(float64(o.Pending.T))
		w.i(int64(o.Pending.Bank))
	}
	w.uv(uint64(len(o.SegT)))
	for k, t := range o.SegT {
		w.f64(float64(t))
		w.i(int64(o.SegHi[k]))
	}
	w.uv(uint64(len(o.Emits)))
	for _, e := range o.Emits {
		w.f64(e.Gap)
		w.i(int64(e.Lo))
		w.i(int64(e.Hi))
	}
	w.uv(uint64(len(o.Seeds)))
	for _, sf := range o.Seeds {
		w.i(int64(sf.Idx))
		w.i(int64(sf.Lo))
		w.i(int64(sf.Hi))
		w.f64(float64(sf.T))
	}
}

// payloadReader decodes a payload, keeping its first error: once a read
// fails, every later one returns zero and the caller checks err once.
type payloadReader struct {
	b   []byte
	err error
}

func (r *payloadReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *payloadReader) uv() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(errors.New("truncated or overlong varint"))
		return 0
	}
	r.b = r.b[n:]
	return v
}

// upTo reads an integer no larger than limit.
func (r *payloadReader) upTo(limit uint64) int64 {
	v := r.uv()
	if v > limit {
		r.fail(fmt.Errorf("integer %d exceeds %d", v, limit))
		return 0
	}
	return int64(v)
}

func (r *payloadReader) i64() int64 { return r.upTo(math.MaxInt64) }
func (r *payloadReader) i32() int32 { return int32(r.upTo(math.MaxInt32)) }

func (r *payloadReader) f64() float64 {
	if len(r.b) < 8 {
		r.fail(errors.New("truncated float"))
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *payloadReader) flag() bool {
	if len(r.b) < 1 {
		r.fail(errors.New("truncated flag"))
		return false
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v != 0
}

// count reads the length of a list whose entries take at least size
// bytes each, refusing one the bytes left cannot hold, so a corrupt
// count cannot drive allocation.
func (r *payloadReader) count(size int) int {
	n := r.uv()
	if n > uint64(len(r.b)/size) {
		r.fail(fmt.Errorf("count %d exceeds the %d bytes left", n, len(r.b)))
		return 0
	}
	return int(n)
}

func (r *payloadReader) str() string {
	n := r.count(1)
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// list reads a count of entries of at least size bytes, then each entry.
func list[T any](r *payloadReader, size int, read func() T) []T {
	out := make([]T, r.count(size))
	for i := range out {
		out[i] = read()
	}
	return out
}

func decodePayload(payload []byte) ([]shardState, error) {
	r := &payloadReader{b: payload}
	n := r.count(1)
	var states []shardState // grown as shards decode: the count allocates nothing
	for i := 0; i < n; i++ {
		st := shardState{Name: r.str(), PeriodIdx: r.i64(), Consumed: r.i64(), NextBoundary: r.f64()}
		st.CurBanks, st.CurPages = r.i64(), r.i64()
		st.CacheAcc, st.Misses, st.ReqRuns = r.i64(), r.i64(), r.i64()
		st.RefitDrift, st.BudgetW = r.f64(), r.f64()
		st.Core = r.core()
		if r.err != nil {
			return nil, fmt.Errorf("shard %s: %w", cmp.Or(st.Name, strconv.Itoa(i)), r.err)
		}
		states = append(states, st)
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after last shard", len(r.b))
	}
	return states, nil
}

func (r *payloadReader) core() core.State {
	c := core.State{Banks: int(r.i32()), Pages: r.i64(), Timeout: simtime.Seconds(r.f64()), Fallback: r.flag(), Level: int(r.i32())}
	if n := r.count(2); n > 0 {
		c.Counters = make(map[string]int64, n)
		for ; n > 0; n-- {
			k := r.str()
			c.Counters[k] = r.i64()
		}
	}
	c.StackPages = list(r, 1, r.i64)
	c.StackRefs, c.StackColds = r.i64(), r.i64()

	o := &c.Open
	o.BankPages, o.MaxBanks, o.MinKeep, o.Window = r.i64(), int(r.i32()), int(r.i32()), simtime.Seconds(r.f64())
	o.Cold, o.MaxDepth = r.i64(), r.i64()
	o.Counts, o.First = list(r, 1, r.i64), list(r, 1, r.i64)
	if o.HasPending = r.flag(); o.HasPending {
		o.Pending = lrusim.SweepEvent{T: simtime.Seconds(r.f64()), Bank: r.i32()}
	}
	o.SegT = make([]simtime.Seconds, r.count(9))
	o.SegHi = make([]int32, len(o.SegT))
	for k := range o.SegT {
		o.SegT[k], o.SegHi[k] = simtime.Seconds(r.f64()), r.i32()
	}
	o.Emits = list(r, 10, func() lrusim.Emission {
		return lrusim.Emission{Gap: r.f64(), Lo: r.i32(), Hi: r.i32()}
	})
	o.Seeds = list(r, 11, func() lrusim.SeedFix {
		return lrusim.SeedFix{Idx: r.i32(), Lo: r.i32(), Hi: r.i32(), T: simtime.Seconds(r.f64())}
	})
	return c
}

// writeSnapshotFile atomically replaces path with a snapshot of states
// and returns the file size.
func writeSnapshotFile(path string, states []shardState) (int64, error) {
	payload := encodePayload(states)

	var hdr bytes.Buffer
	hdr.WriteString(snapshotMagic)
	hdr.WriteByte(snapshotVersion)
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(payload)))
	hdr.Write(lenBuf[:])

	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	cleanup := func() {
		f.Close()
		os.Remove(tmp)
	}
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.ChecksumIEEE(payload))
	for _, chunk := range [][]byte{hdr.Bytes(), payload, crcBuf[:]} {
		if _, err := f.Write(chunk); err != nil {
			cleanup()
			return 0, err
		}
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	return int64(len(snapshotMagic) + 1 + 8 + len(payload) + 4), nil
}

// readSnapshotFile loads and validates a snapshot. A missing file
// returns errNoSnapshot (cold start); anything structurally wrong
// returns a descriptive error.
func readSnapshotFile(path string) ([]shardState, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, errNoSnapshot
		}
		return nil, err
	}
	hdrLen := len(snapshotMagic) + 1 + 8
	if len(b) < hdrLen+4 {
		return nil, fmt.Errorf("snapshot %s: truncated header (%d bytes)", path, len(b))
	}
	if string(b[:4]) != snapshotMagic {
		return nil, fmt.Errorf("snapshot %s: bad magic", path)
	}
	if version := b[4]; version != snapshotVersion {
		return nil, fmt.Errorf("snapshot %s: version %d, this daemon reads only version %d", path, version, snapshotVersion)
	}
	payloadLen := binary.LittleEndian.Uint64(b[5:13])
	if payloadLen != uint64(len(b)-hdrLen-4) {
		return nil, fmt.Errorf("snapshot %s: length field %d does not match %d payload bytes", path, payloadLen, len(b)-hdrLen-4)
	}
	payload := b[hdrLen : hdrLen+int(payloadLen)]
	wantCRC := binary.LittleEndian.Uint32(b[len(b)-4:])
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("snapshot %s: checksum mismatch (%08x != %08x)", path, got, wantCRC)
	}
	states, err := decodePayload(payload)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
	}
	return states, nil
}
