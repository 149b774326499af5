package lrusim

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSnapshotRestoreDepthParity: a restored simulator must report the
// same depth as the original for every subsequent reference, across
// snapshot points that land before, during, and after evictions and
// internal compactions.
func TestSnapshotRestoreDepthParity(t *testing.T) {
	const tracked = 64
	rng := rand.New(rand.NewSource(7))
	s := NewStackSim(tracked)
	// Enough churn over a page universe larger than the tracked window
	// to force evictions, and enough volume to force compact() (capacity
	// is max(2*tracked, 1024) positions).
	for i := 0; i < 5000; i++ {
		s.Reference(rng.Int63n(3 * tracked))

		if i%617 != 0 {
			continue
		}
		pages := s.SnapshotPages()
		refs, colds := s.Counters()
		r := RestoreStackSim(tracked, pages, refs, colds)
		if r.Len() != s.Len() {
			t.Fatalf("i=%d: restored Len %d, want %d", i, r.Len(), s.Len())
		}
		if rr, rc := r.Counters(); rr != refs || rc != colds {
			t.Fatalf("i=%d: restored counters (%d,%d), want (%d,%d)", i, rr, rc, refs, colds)
		}
		// Drive both with the same tail and compare observable depths.
		tailRng := rand.New(rand.NewSource(int64(i)))
		for j := 0; j < 300; j++ {
			p := tailRng.Int63n(3 * tracked)
			ds, dr := s.Reference(p), r.Reference(p)
			if ds != dr {
				t.Fatalf("i=%d j=%d page %d: depth %d from original, %d from restored", i, j, p, ds, dr)
			}
		}
		// The parity loop advanced s past the snapshot point; that is
		// fine — the next snapshot just covers the newer state.
	}
}

// TestSnapshotPagesOrder: the snapshot lists pages LRU-first, so
// restoring and then referencing the MRU page reports depth 1.
func TestSnapshotPagesOrder(t *testing.T) {
	s := NewStackSim(8)
	for p := int64(0); p < 5; p++ {
		s.Reference(p)
	}
	pages := s.SnapshotPages()
	if len(pages) != 5 || pages[0] != 0 || pages[4] != 4 {
		t.Fatalf("snapshot pages = %v, want [0 1 2 3 4]", pages)
	}
	r := RestoreStackSim(8, pages, 0, 0)
	if d := r.Reference(4); d != 1 {
		t.Fatalf("MRU page depth after restore = %d, want 1", d)
	}
	if d := r.Reference(0); d != 5 {
		t.Fatalf("LRU page depth after restore = %d, want 5", d)
	}
}

// TestRestoreOverflowEvicts: restoring into a smaller window keeps the
// most recent pages, like a live simulator would have.
func TestRestoreOverflowEvicts(t *testing.T) {
	pages := []int64{10, 11, 12, 13, 14, 15}
	r := RestoreStackSim(4, pages, 6, 6)
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if d := r.Reference(10); d != Cold {
		t.Fatalf("evicted page depth = %d, want Cold", d)
	}
}

// TestSnapshotRestoreAcrossCompaction snapshots a window in the thousands
// just before each compaction and just after it, and drives the original
// and both restored stacks with the same tail, long enough for all of
// them to compact again on their own schedules. Depths, counters and the
// snapshots themselves must agree throughout.
func TestSnapshotRestoreAcrossCompaction(t *testing.T) {
	const tracked = 3000
	page := func(r *rand.Rand) int64 {
		if r.Intn(4) == 0 {
			return r.Int63n(4 * tracked)
		}
		return r.Int63n(tracked / 2)
	}
	restore := func(s *StackSim) *StackSim {
		t.Helper()
		pages := s.SnapshotPages()
		refs, colds := s.Counters()
		r := RestoreStackSim(tracked, pages, refs, colds)
		if rr, rc := r.Counters(); r.Len() != s.Len() || rr != refs || rc != colds {
			t.Fatalf("restored Len/Refs/Colds %d/%d/%d, want %d/%d/%d", r.Len(), rr, rc, s.Len(), refs, colds)
		}
		if !reflect.DeepEqual(r.SnapshotPages(), pages) {
			t.Fatal("restored snapshot differs from the original's")
		}
		return r
	}
	rng := rand.New(rand.NewSource(11))
	s := NewStackSim(tracked)
	for compaction := 0; compaction < 6; {
		s.Reference(page(rng))
		if s.nextPos != len(s.pageAt) {
			continue // the next reference does not compact
		}
		restored := []*StackSim{restore(s)}
		tail := rand.New(rand.NewSource(int64(compaction)))
		for j := 0; j < 3*tracked; j++ {
			p := page(tail)
			d := s.Reference(p)
			for k, r := range restored {
				if dr := r.Reference(p); dr != d {
					t.Fatalf("compaction %d tail %d page %d: depth %d from original, %d from restored copy %d", compaction, j, p, d, dr, k)
				}
			}
			if j == 0 {
				if s.nextPos > s.Len()+1 {
					t.Fatalf("compaction %d: the reference did not compact", compaction)
				}
				restored = append(restored, restore(s))
			}
		}
		for k, r := range restored {
			if !reflect.DeepEqual(r.SnapshotPages(), s.SnapshotPages()) {
				t.Fatalf("compaction %d: restored copy %d's snapshot differs after the tail", compaction, k)
			}
		}
		compaction++
	}
}
