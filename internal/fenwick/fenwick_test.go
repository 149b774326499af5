package fenwick

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicSums(t *testing.T) {
	tr := New(8)
	tr.Add(0, 1)
	tr.Add(3, 5)
	tr.Add(7, 2)
	tests := []struct {
		i    int
		want int64
	}{
		{-1, 0}, {0, 1}, {1, 1}, {2, 1}, {3, 6}, {6, 6}, {7, 8}, {100, 8},
	}
	for _, tt := range tests {
		if got := tr.PrefixSum(tt.i); got != tt.want {
			t.Errorf("PrefixSum(%d) = %d, want %d", tt.i, got, tt.want)
		}
	}
}

func TestNegativeDeltas(t *testing.T) {
	tr := New(4)
	tr.Add(2, 3)
	tr.Add(2, -3)
	if got := tr.PrefixSum(3); got != 0 {
		t.Errorf("PrefixSum(3) after cancel = %d, want 0", got)
	}
}

func TestReset(t *testing.T) {
	tr := New(16)
	for i := 0; i < 16; i++ {
		tr.Add(i, int64(i))
	}
	tr.Reset()
	if got := tr.PrefixSum(15); got != 0 {
		t.Errorf("PrefixSum(15) after Reset = %d, want 0", got)
	}
	tr.Add(5, 7)
	if got := tr.PrefixSum(5); got != 7 {
		t.Errorf("PrefixSum(5) after Reset+Add = %d, want 7", got)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range did not panic")
		}
	}()
	New(4).Add(4, 1)
}

func TestZeroSize(t *testing.T) {
	tr := New(0)
	if got := tr.PrefixSum(0); got != 0 {
		t.Errorf("empty tree PrefixSum = %d", got)
	}
}

// TestQuickAgainstNaive drives the tree against a plain slice model with
// random operations.
func TestQuickAgainstNaive(t *testing.T) {
	const n = 64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New(n)
		model := make([]int64, n)
		for op := 0; op < 500; op++ {
			switch rng.Intn(2) {
			case 0:
				i := rng.Intn(n)
				d := int64(rng.Intn(11) - 5)
				tr.Add(i, d)
				model[i] += d
			case 1:
				i := rng.Intn(n + 2)
				var want int64
				for j := 0; j <= i && j < n; j++ {
					want += model[j]
				}
				if got := tr.PrefixSum(i); got != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAppendPrefixSums checks the O(n) bulk materialisation against
// one PrefixSum query per index, including appends onto a non-empty dst.
func TestQuickAppendPrefixSums(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		tr := New(n)
		for i := 0; i < n; i++ {
			tr.Add(rng.Intn(n), int64(rng.Intn(7))-3)
		}
		prefix := 3 + rng.Intn(4)
		dst := make([]int64, prefix)
		for i := range dst {
			dst[i] = int64(100 + i)
		}
		got := tr.AppendPrefixSums(dst)
		if len(got) != prefix+n {
			return false
		}
		for i := 0; i < prefix; i++ {
			if got[i] != int64(100+i) {
				return false
			}
		}
		for i := 0; i < n; i++ {
			if got[prefix+i] != tr.PrefixSum(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
