// Snapshot codec: the daemon's warm-restart checkpoint file.
//
// Layout (all little-endian):
//
//	magic "JPMS" | version u8 | payloadLen u64 | payload | crc32(payload) u32
//
// The payload is a shard count followed by one self-contained record per
// shard: identity and stream position, the manager's core.State (with the
// extended-LRU stack: page list in recency order plus lifetime
// counters), and the partial period in progress — its depth log with
// times stored as raw float64 bits so the restored observation is
// bit-identical to the one the uninterrupted run would have built.
// Integers are uvarints (varints where negative values are legal, such
// as the Cold depth); floats are fixed 8-byte bit patterns.
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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"jointpm/internal/core"
	"jointpm/internal/simtime"
)

const (
	snapshotMagic = "JPMS"

	// snapshotVersion 2 added the per-shard incremental-decide section
	// (observation mode + ingested reference count); version-1 files are
	// still readable — they simply predate the section, so it decodes to
	// its zero values and restore rebuilds the streaming state by
	// replaying the stored partial-period log.
	// Version 3 appends the shard's refit drift-hold fraction, so a warm
	// restart keeps the mode the checkpointed daemon was running even if
	// the new process's flags differ; older files decode it as -1 ("keep
	// the configured value").
	// Version 4 appends the shard's fleet power budget in watts, so a
	// warm restart under a global power cap resumes capped decisions
	// bit-identically; older files decode it as 0 ("uncapped until the
	// first reallocation epoch").
	// Version 5 appends the manager's DRPM speed level, so a warm restart
	// of a multi-speed daemon resumes at the level the last decision
	// chose; older files decode it as 0 (full speed).
	snapshotVersion    = 5
	snapshotVersionMin = 1

	// snapModeIncremental is the observation mode every shard writes: it
	// marks IngestedRefs as recorded. Daemons that ran the retired batch
	// path wrote 0.
	snapModeIncremental = 1

	// maxSnapshotShards bounds the shard count a reader will believe, so
	// a corrupt count cannot drive allocation.
	maxSnapshotShards = 1 << 16
)

// errNoSnapshot marks "no checkpoint exists yet" — a cold start.
var errNoSnapshot = errors.New("serve: no snapshot")

// logRecord is one depth-log entry in the snapshot payload.
type logRecord struct {
	Time  float64 // float64 bits of the request time
	Page  int64
	Depth int64 // lrusim depth; -1 = Cold
	Bytes int64
}

// shardState is one shard's snapshot payload.
type shardState struct {
	Name         string
	PeriodIdx    int64
	Consumed     int64
	NextBoundary float64
	CurBanks     int64
	CurPages     int64
	Core         core.State // the manager's state, the extended-LRU stack included
	CacheAcc     int64
	Misses       int64
	ReqRuns      int64
	Log          []logRecord

	// Incremental-decide section (snapshot v2): the observation mode the
	// shard was running (snapModeIncremental; 0 from a daemon that ran the
	// retired batch path) and how many references its manager had
	// ingested into the streaming depth histogram when the checkpoint was
	// cut. The histogram itself is not serialised — the partial-period Log
	// is its replayable form — so Mode/IngestedRefs exist to validate that
	// a restore's replay reconstructed exactly the state the snapshot saw.
	Mode         int64
	IngestedRefs int64

	// RefitDrift (snapshot v3) is the steady-state drift-hold fraction
	// the shard's manager was running when the checkpoint was cut, so a
	// warm restart resumes the same refit mode even if the restarted
	// process was launched with different flags. Files older than v3
	// decode it as -1, meaning "keep the restored process's configured
	// value".
	RefitDrift float64

	// BudgetW (snapshot v4) is the fleet power budget the shard was
	// running under when the checkpoint was cut; 0 (and any pre-v4 file)
	// means uncapped.
	BudgetW float64
}

type payloadWriter struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (w *payloadWriter) uv(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *payloadWriter) sv(v int64) {
	n := binary.PutVarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *payloadWriter) f64(v float64) {
	binary.LittleEndian.PutUint64(w.tmp[:8], math.Float64bits(v))
	w.buf.Write(w.tmp[:8])
}

func (w *payloadWriter) str(s string) {
	w.uv(uint64(len(s)))
	w.buf.WriteString(s)
}

// encodePayload serialises the shards in the layout of the given format
// version. The daemon always writes snapshotVersion; the parameter
// exists so the v3→v4 compatibility tests can produce genuine old-format
// files without keeping frozen fixtures around.
func encodePayload(states []shardState, version byte) []byte {
	w := &payloadWriter{}
	w.uv(uint64(len(states)))
	for _, st := range states {
		w.str(st.Name)
		w.uv(uint64(st.PeriodIdx))
		w.uv(uint64(st.Consumed))
		w.f64(st.NextBoundary)
		w.uv(uint64(st.CurBanks))
		w.uv(uint64(st.CurPages))

		w.uv(uint64(st.Core.Banks))
		w.uv(uint64(st.Core.Pages))
		w.f64(float64(st.Core.Timeout))
		if st.Core.Fallback {
			w.buf.WriteByte(1)
		} else {
			w.buf.WriteByte(0)
		}
		// Counter names sort at encode time via core's fixed visit order;
		// we keep map iteration out of the payload by emitting the
		// key/value pairs sorted.
		keys := sortedKeys(st.Core.Counters)
		w.uv(uint64(len(keys)))
		for _, k := range keys {
			w.str(k)
			w.uv(uint64(st.Core.Counters[k]))
		}

		w.uv(uint64(len(st.Core.StackPages)))
		for _, p := range st.Core.StackPages {
			w.uv(uint64(p))
		}
		w.uv(uint64(st.Core.StackRefs))
		w.uv(uint64(st.Core.StackColds))

		w.uv(uint64(st.CacheAcc))
		w.uv(uint64(st.Misses))
		w.uv(uint64(st.ReqRuns))
		w.uv(uint64(len(st.Log)))
		for _, r := range st.Log {
			w.f64(r.Time)
			w.uv(uint64(r.Page))
			w.sv(r.Depth)
			w.uv(uint64(r.Bytes))
		}
		if version >= 2 {
			w.uv(uint64(st.Mode))
			w.uv(uint64(st.IngestedRefs))
		}
		if version >= 3 {
			w.f64(st.RefitDrift)
		}
		if version >= 4 {
			w.f64(st.BudgetW)
		}
		if version >= 5 {
			w.uv(uint64(st.Core.Level))
		}
	}
	return w.buf.Bytes()
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort: tiny fixed set
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}

type payloadReader struct {
	r *bytes.Reader
}

func (r *payloadReader) uv() (uint64, error) { return binary.ReadUvarint(r.r) }
func (r *payloadReader) sv() (int64, error)  { return binary.ReadVarint(r.r) }

func (r *payloadReader) f64() (float64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r.r, b[:]); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:])), nil
}

func (r *payloadReader) str(maxLen uint64) (string, error) {
	n, err := r.uv()
	if err != nil {
		return "", err
	}
	if n > maxLen {
		return "", fmt.Errorf("string length %d exceeds limit %d", n, maxLen)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func decodePayload(payload []byte, version byte) ([]shardState, error) {
	r := &payloadReader{r: bytes.NewReader(payload)}
	count, err := r.uv()
	if err != nil {
		return nil, err
	}
	if count > maxSnapshotShards {
		return nil, fmt.Errorf("shard count %d exceeds limit", count)
	}
	states := make([]shardState, 0, count)
	for i := uint64(0); i < count; i++ {
		st, err := decodeShard(r, version)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		states = append(states, st)
	}
	if r.r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes after last shard", r.r.Len())
	}
	return states, nil
}

func decodeShard(r *payloadReader, version byte) (shardState, error) {
	var st shardState
	var err error
	if st.Name, err = r.str(1 << 10); err != nil {
		return st, err
	}
	ivs := []*int64{&st.PeriodIdx, &st.Consumed}
	for _, p := range ivs {
		v, err := r.uv()
		if err != nil {
			return st, err
		}
		*p = int64(v)
	}
	if st.NextBoundary, err = r.f64(); err != nil {
		return st, err
	}
	for _, p := range []*int64{&st.CurBanks, &st.CurPages} {
		v, err := r.uv()
		if err != nil {
			return st, err
		}
		*p = int64(v)
	}

	var banks, pages uint64
	if banks, err = r.uv(); err != nil {
		return st, err
	}
	if pages, err = r.uv(); err != nil {
		return st, err
	}
	timeout, err := r.f64()
	if err != nil {
		return st, err
	}
	fb, err := r.r.ReadByte()
	if err != nil {
		return st, err
	}
	st.Core = core.State{Banks: int(banks), Pages: int64(pages), Timeout: simtime.Seconds(timeout), Fallback: fb != 0}
	nc, err := r.uv()
	if err != nil {
		return st, err
	}
	if nc > 1<<10 {
		return st, fmt.Errorf("counter count %d exceeds limit", nc)
	}
	if nc > 0 {
		st.Core.Counters = make(map[string]int64, nc)
		for j := uint64(0); j < nc; j++ {
			k, err := r.str(1 << 10)
			if err != nil {
				return st, err
			}
			v, err := r.uv()
			if err != nil {
				return st, err
			}
			st.Core.Counters[k] = int64(v)
		}
	}

	np, err := r.uv()
	if err != nil {
		return st, err
	}
	if np > 1<<32 {
		return st, fmt.Errorf("stack size %d exceeds limit", np)
	}
	st.Core.StackPages = make([]int64, np)
	for j := range st.Core.StackPages {
		v, err := r.uv()
		if err != nil {
			return st, err
		}
		st.Core.StackPages[j] = int64(v)
	}
	for _, p := range []*int64{&st.Core.StackRefs, &st.Core.StackColds, &st.CacheAcc, &st.Misses, &st.ReqRuns} {
		v, err := r.uv()
		if err != nil {
			return st, err
		}
		*p = int64(v)
	}

	nl, err := r.uv()
	if err != nil {
		return st, err
	}
	if nl > 1<<32 {
		return st, fmt.Errorf("log size %d exceeds limit", nl)
	}
	st.Log = make([]logRecord, nl)
	for j := range st.Log {
		rec := &st.Log[j]
		if rec.Time, err = r.f64(); err != nil {
			return st, err
		}
		v, err := r.uv()
		if err != nil {
			return st, err
		}
		rec.Page = int64(v)
		if rec.Depth, err = r.sv(); err != nil {
			return st, err
		}
		if v, err = r.uv(); err != nil {
			return st, err
		}
		rec.Bytes = int64(v)
	}
	if version >= 2 {
		v, err := r.uv()
		if err != nil {
			return st, err
		}
		st.Mode = int64(v)
		if v, err = r.uv(); err != nil {
			return st, err
		}
		st.IngestedRefs = int64(v)
	}
	if version >= 3 {
		if st.RefitDrift, err = r.f64(); err != nil {
			return st, err
		}
	} else {
		st.RefitDrift = -1 // pre-v3: keep the configured value
	}
	if version >= 4 {
		if st.BudgetW, err = r.f64(); err != nil {
			return st, err
		}
	}
	if version >= 5 {
		v, err := r.uv()
		if err != nil {
			return st, err
		}
		st.Core.Level = int(v) // pre-v5 files leave it 0: full speed
	}
	return st, nil
}

// writeSnapshotFile atomically replaces path with a snapshot of states
// and returns the file size. The daemon always writes the current
// format; writeSnapshotFileV exists for the compatibility tests.
func writeSnapshotFile(path string, states []shardState) (int64, error) {
	return writeSnapshotFileV(path, states, snapshotVersion)
}

func writeSnapshotFileV(path string, states []shardState, version byte) (int64, error) {
	payload := encodePayload(states, version)

	var hdr bytes.Buffer
	hdr.WriteString(snapshotMagic)
	hdr.WriteByte(version)
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
	version := b[4]
	if version < snapshotVersionMin || version > snapshotVersion {
		return nil, fmt.Errorf("snapshot %s: unsupported version %d", path, version)
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
	states, err := decodePayload(payload, version)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
	}
	return states, nil
}
