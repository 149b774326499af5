package intmap

import (
	"math/rand"
	"testing"
)

// TestDifferentialAgainstBuiltinMap drives the open-addressed table and a
// built-in map through the same randomized Put/Delete/Get workload and
// requires identical observable behaviour, including backward-shift
// deletion keeping every surviving probe chain intact.
func TestDifferentialAgainstBuiltinMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := New(4)
	ref := map[int64]int64{}

	// Small key space forces heavy collision/delete/reinsert churn.
	const keySpace = 512
	for op := 0; op < 200000; op++ {
		key := rng.Int63n(keySpace)
		switch rng.Intn(3) {
		case 0:
			val := rng.Int63()
			m.Put(key, val)
			ref[key] = val
		case 1:
			got := m.Delete(key)
			_, want := ref[key]
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, key, got, want)
			}
			delete(ref, key)
		case 2:
			gotV, gotOK := m.Get(key)
			wantV, wantOK := ref[key]
			if gotOK != wantOK || (gotOK && gotV != wantV) {
				t.Fatalf("op %d: Get(%d) = %d,%v want %d,%v", op, key, gotV, gotOK, wantV, wantOK)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, m.Len(), len(ref))
		}
	}

	// Full sweep at the end: every reference entry must be present.
	for k, v := range ref {
		got, ok := m.Get(k)
		if !ok || got != v {
			t.Fatalf("final: Get(%d) = %d,%v want %d,true", k, got, ok, v)
		}
	}
}

func TestResetKeepsCapacity(t *testing.T) {
	m := New(1)
	for i := int64(0); i < 1000; i++ {
		m.Put(i, i*2)
	}
	size := len(m.slots)
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len after Reset = %d", m.Len())
	}
	if len(m.slots) != size {
		t.Fatalf("Reset shrank table: %d -> %d", size, len(m.slots))
	}
	if _, ok := m.Get(3); ok {
		t.Fatal("entry survived Reset")
	}
	for i := int64(0); i < 1000; i++ {
		m.Put(i, i)
	}
	if len(m.slots) != size {
		t.Fatalf("refill grew table: %d -> %d", size, len(m.slots))
	}
}

func TestNegativeKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put(-1) did not panic")
		}
	}()
	New(4).Put(-1, 0)
}

// TestSwapDifferential drives Swap, Delete and Rewrite against a built-in
// map from an empty New(0) table, so every Swap both reports the value it
// replaced and crosses the table's growth steps.
func TestSwapDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := New(0)
	ref := map[int64]int64{}
	for op := 0; op < 100000; op++ {
		key := rng.Int63n(4096)
		switch rng.Intn(8) {
		case 0:
			got := m.Delete(key)
			_, want := ref[key]
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, key, got, want)
			}
			delete(ref, key)
		case 1:
			if op%97 == 0 {
				m.Rewrite(func(v int64) int64 { return v ^ 0x5a5a })
				for k, v := range ref {
					ref[k] = v ^ 0x5a5a
				}
			}
		default:
			val := rng.Int63()
			old, found := m.Swap(key, val)
			want, wantFound := ref[key]
			if found != wantFound || (found && old != want) {
				t.Fatalf("op %d: Swap(%d) = %d,%v want %d,%v", op, key, old, found, want, wantFound)
			}
			ref[key] = val
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, m.Len(), len(ref))
		}
		if 2*m.Len() > len(m.slots) {
			t.Fatalf("op %d: %d entries in %d slots exceeds load 1/2", op, m.Len(), len(m.slots))
		}
	}
	for k, v := range ref {
		if got, ok := m.Get(k); !ok || got != v {
			t.Fatalf("final: Get(%d) = %d,%v want %d,true", k, got, ok, v)
		}
	}
}

// TestTouchLoadsHomeSlot: Touch reads the key's home slot, which holds
// the key itself when nothing collided with it.
func TestTouchLoadsHomeSlot(t *testing.T) {
	m := New(0)
	if got := m.Touch(42); got != emptySlot {
		t.Fatalf("Touch on an empty table = %d, want the empty marker", got)
	}
	m.Put(42, 7)
	if got := m.Touch(42); got != 42 {
		t.Fatalf("Touch(42) = %d, want 42", got)
	}
}
