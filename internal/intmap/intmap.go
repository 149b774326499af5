// Package intmap provides an open-addressed hash table from non-negative
// int64 keys to int64 values, specialised for the simulator's hot paths
// (page → frame in the page cache, page → extent in the LRU stack
// simulator). Compared with a built-in map[int64]T it avoids
// per-bucket overflow pointers and interface boxing, stores each key and
// its value side by side in one 16-byte slot so a probe reads one cache
// line rather than two, and supports O(1) clear-with-capacity reuse.
//
// The table uses Fibonacci hashing with linear probing and backward-shift
// deletion (no tombstones). Load is kept at or below 1/2, so probe
// sequences stay short even under adversarial key sets.
//
// Keys must be ≥ 0; the table reserves -1 internally as the empty slot
// marker.
package intmap

const emptySlot = -1

// fibMult is 2^64 / φ, the multiplicative constant of Fibonacci hashing;
// it scrambles consecutive page numbers (the common key pattern here)
// into well-spread slots.
const fibMult = 0x9E3779B97F4A7C15

// slot is one table entry: four share a 64-byte cache line.
type slot struct {
	key int64 // emptySlot when free
	val int64
}

// Map is an open-addressed int64 → int64 hash table. The zero value is
// not ready for use; call New.
type Map struct {
	slots []slot
	shift uint // 64 - log2(len(slots))
	n     int
}

// New returns a map sized to hold at least capacity entries without
// growing.
func New(capacity int) *Map {
	m := &Map{}
	size := 16
	for size < 2*capacity {
		size <<= 1
	}
	m.init(size)
	return m
}

func (m *Map) init(size int) {
	m.slots = make([]slot, size)
	for i := range m.slots {
		m.slots[i].key = emptySlot
	}
	shift := uint(64)
	for s := size; s > 1; s >>= 1 {
		shift--
	}
	m.shift = shift
	m.n = 0
}

// Len returns the number of entries.
func (m *Map) Len() int { return m.n }

func (m *Map) home(key int64) uint64 {
	return (uint64(key) * fibMult) >> m.shift
}

// slot returns the index holding key, or -1 if absent.
func (m *Map) slot(key int64) int {
	mask := uint64(len(m.slots) - 1)
	for i := m.home(key); ; i = (i + 1) & mask {
		switch m.slots[i].key {
		case key:
			return int(i)
		case emptySlot:
			return -1
		}
	}
}

// Get returns the value stored for key.
func (m *Map) Get(key int64) (int64, bool) {
	if i := m.slot(key); i >= 0 {
		return m.slots[i].val, true
	}
	return 0, false
}

// Put inserts or replaces the value for key. key must be ≥ 0.
func (m *Map) Put(key, val int64) { m.Swap(key, val) }

// Swap stores val for key and returns the value it replaced, reporting
// whether key was present: a lookup and an update in one probe. key must
// be ≥ 0.
func (m *Map) Swap(key, val int64) (old int64, found bool) {
	if key < 0 {
		panic("intmap: negative key")
	}
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	mask := uint64(len(m.slots) - 1)
	for i := m.home(key); ; i = (i + 1) & mask {
		s := &m.slots[i]
		switch s.key {
		case key:
			old, s.val = s.val, val
			return old, true
		case emptySlot:
			s.key, s.val = key, val
			m.n++
			return 0, false
		}
	}
}

// Ref returns a pointer to the value stored for key, or nil if key is
// absent: a lookup whose result the caller can read and update in place,
// in one probe. Unlike Swap it never grows the table. The pointer is
// valid until the next insertion or deletion; Rewrite keeps it valid.
func (m *Map) Ref(key int64) *int64 {
	mask := uint64(len(m.slots) - 1)
	for i := m.home(key); ; i = (i + 1) & mask {
		s := &m.slots[i]
		switch s.key {
		case key:
			return &s.val
		case emptySlot:
			return nil
		}
	}
}

// Touch loads key's home slot and returns the key stored there. It
// exists for look-ahead: a caller about to probe several keys touches
// them all first, folding the results into a sink so the loads are kept,
// and their cache misses overlap instead of stalling one probe each.
func (m *Map) Touch(key int64) int64 {
	return m.slots[m.home(key)].key
}

// Delete removes key, reporting whether it was present. Deletion uses
// backward shifting: later entries of the probe chain slide into the
// hole, so lookups never need tombstones.
func (m *Map) Delete(key int64) bool {
	i := m.slot(key)
	if i < 0 {
		return false
	}
	m.n--
	mask := uint64(len(m.slots) - 1)
	hole := uint64(i)
	for j := (hole + 1) & mask; ; j = (j + 1) & mask {
		k := m.slots[j].key
		if k == emptySlot {
			break
		}
		// Entry j may fill the hole only if its home position lies
		// cyclically at or before the hole; otherwise moving it would
		// break its own probe chain.
		if (j-m.home(k))&mask >= (j-hole)&mask {
			m.slots[hole] = m.slots[j]
			hole = j
		}
	}
	m.slots[hole].key = emptySlot
	return true
}

// Rewrite replaces every entry's value with f(value), in table order.
// It is one sequential pass over the table, for callers that renumber
// all values at once.
func (m *Map) Rewrite(f func(val int64) int64) {
	for i := range m.slots {
		if s := &m.slots[i]; s.key != emptySlot {
			s.val = f(s.val)
		}
	}
}

// Reset removes all entries, keeping the allocated capacity.
func (m *Map) Reset() {
	for i := range m.slots {
		m.slots[i].key = emptySlot
	}
	m.n = 0
}

func (m *Map) grow() {
	old := m.slots
	m.init(2 * len(old))
	mask := uint64(len(m.slots) - 1)
	for _, s := range old {
		if s.key == emptySlot {
			continue
		}
		j := m.home(s.key)
		for m.slots[j].key != emptySlot {
			j = (j + 1) & mask
		}
		m.slots[j] = s
		m.n++
	}
}
