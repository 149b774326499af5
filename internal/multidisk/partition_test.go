package multidisk

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestSizeGrid(t *testing.T) {
	g := sizeGrid(128, 10)
	if g[0] != 1 || g[len(g)-1] != 128 {
		t.Fatalf("grid ends: %v", g)
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatalf("grid not increasing: %v", g)
		}
	}
	// Degenerate budgets still produce a usable grid.
	if g := sizeGrid(1, 10); len(g) != 1 || g[0] != 1 {
		t.Errorf("budget-1 grid: %v", g)
	}
}

func TestChoosePartitionsKnapsack(t *testing.T) {
	// Two disks, sizes {1, 2, 4}; disk 0 loves memory, disk 1 is
	// indifferent. Budget 5 → disk 0 should get 4, disk 1 gets 1.
	sizes := []int{1, 2, 4}
	costs := [][]float64{
		{10, 6, 1}, // strong gains from size
		{3, 3, 3},  // flat
	}
	var p partitioner
	alloc := p.choose(costs, sizes, 5)
	if alloc[0] != 4 || alloc[1] != 1 {
		t.Fatalf("alloc = %v, want [4 1]", alloc)
	}
	// Budget allows both to max out.
	alloc = p.choose(costs, sizes, 8)
	if alloc[0] != 4 {
		t.Fatalf("alloc = %v, want disk0 at 4", alloc)
	}
	// Infeasible budget degrades to minimum sizes.
	alloc = p.choose(costs, sizes, 1)
	if len(alloc) != 2 || alloc[0] != 1 {
		t.Fatalf("infeasible alloc = %v", alloc)
	}
	if p.choose(nil, sizes, 4) != nil {
		t.Error("empty costs should yield nil")
	}
}

func TestChoosePartitionsRespectsBudget(t *testing.T) {
	sizes := []int{1, 3, 9, 27}
	costs := make([][]float64, 5)
	for d := range costs {
		costs[d] = []float64{9, 3, 1, 0.3} // everyone wants more
	}
	var p partitioner
	for _, budget := range []int{5, 20, 50, 135} {
		alloc := p.choose(costs, sizes, budget)
		sum := 0
		for _, a := range alloc {
			sum += a
		}
		if sum > budget && budget >= len(costs) {
			t.Errorf("budget %d exceeded: %v", budget, alloc)
		}
	}
}

// choosePartitionsDense is the knapsack over every budget, the oracle
// for partitioner.choose: dp[d][b] is the least cost of disks [0, d) using
// b budget units, and pick[d][b] the grid index disk d−1 took for it.
func choosePartitionsDense(costs [][]float64, sizes []int, budget int) []int {
	nDisks := len(costs)
	if nDisks == 0 {
		return nil
	}
	const inf = math.MaxFloat64 / 4
	dp := make([][]float64, nDisks+1)
	pick := make([][]int, nDisks+1)
	for i := range dp {
		dp[i] = make([]float64, budget+1)
		pick[i] = make([]int, budget+1)
		for j := range dp[i] {
			dp[i][j] = inf
			pick[i][j] = -1
		}
	}
	dp[0][0] = 0
	for d := 0; d < nDisks; d++ {
		for b := 0; b <= budget; b++ {
			if dp[d][b] >= inf {
				continue
			}
			for si := range sizes {
				nb := b + sizes[si]
				if nb > budget {
					continue
				}
				if c := dp[d][b] + costs[d][si]; c < dp[d+1][nb] {
					dp[d+1][nb] = c
					pick[d+1][nb] = si
				}
			}
		}
	}
	bestB, bestC := -1, inf
	for b := 0; b <= budget; b++ {
		if dp[nDisks][b] < bestC {
			bestC, bestB = dp[nDisks][b], b
		}
	}
	out := make([]int, nDisks)
	if bestB < 0 {
		for i := range out {
			out[i] = sizes[0]
		}
		return out
	}
	for d, b := nDisks, bestB; d > 0; d-- {
		si := pick[d][b]
		out[d-1] = sizes[si]
		b -= sizes[si]
	}
	return out
}

// TestChooseMatchesDense holds the reachable-budget knapsack to the dense
// one on random grids and costs, one partitioner reused throughout as
// across period boundaries: costs drawn from a few values so that ties
// are common, some +Inf and NaN, and budgets from infeasible to slack.
func TestChooseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var p partitioner
	ties := 0
	for iter := 0; iter < 3000; iter++ {
		var sizes []int
		if rng.Intn(2) == 0 {
			sizes = sizeGrid(1+rng.Intn(300), 2+rng.Intn(10))
		} else {
			for n := 1 + rng.Intn(6); len(sizes) < n; {
				sizes = append(sizes, 1+rng.Intn(40))
			}
		}
		costs := make([][]float64, 1+rng.Intn(5))
		for d := range costs {
			costs[d] = make([]float64, len(sizes))
			for si := range costs[d] {
				switch r := rng.Intn(40); {
				case r == 0:
					costs[d][si] = math.Inf(1)
				case r == 1:
					costs[d][si] = math.NaN()
				case r < 20:
					costs[d][si] = float64(rng.Intn(4))
				default:
					costs[d][si] = rng.Float64() * 10
				}
			}
		}
		budget := rng.Intn(len(costs)*40 + 1)
		want := choosePartitionsDense(costs, sizes, budget)
		got := p.choose(costs, sizes, budget)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iter %d: sizes %v budget %d costs %v: choose %v, dense %v", iter, sizes, budget, costs, got, want)
		}
		if costs[0][0] == costs[0][len(sizes)-1] {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no tied costs drawn")
	}
}

// BenchmarkChoose is one Partitioned boundary's knapsack at the quick
// scale's 8,192 installed banks and four disks.
func BenchmarkChoose(b *testing.B) {
	grid := sizeGrid(8192, 10)
	rng := rand.New(rand.NewSource(1))
	costs := make([][]float64, 4)
	for d := range costs {
		costs[d] = make([]float64, len(grid))
		for si := range costs[d] {
			costs[d][si] = rng.Float64()
		}
	}
	var p partitioner
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.choose(costs, grid, 8192)
	}
}

func TestPartitionedRun(t *testing.T) {
	tr := arrayWorkload(t, 11)
	cfg := arrayConfig(tr, 4, HotCold, Partitioned)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != Partitioned {
		t.Fatal("method lost")
	}
	if len(res.Partitions) != 4 {
		t.Fatalf("partitions = %v", res.Partitions)
	}
	sum := 0
	for _, p := range res.Partitions {
		if p < 1 {
			t.Fatalf("empty partition: %v", res.Partitions)
		}
		sum += p
	}
	if sum > 128 {
		t.Fatalf("partitions exceed installed banks: %v", res.Partitions)
	}
	// Memory stays fully powered (PB-LRU partitions a fixed total).
	if res.Banks != 128 {
		t.Errorf("banks = %d, want all 128", res.Banks)
	}
	if res.CacheAccesses == 0 || res.DiskAccesses == 0 {
		t.Fatal("no traffic")
	}
}

func TestPartitionedFavoursHotDisk(t *testing.T) {
	tr := arrayWorkload(t, 12)
	cfg := arrayConfig(tr, 4, HotCold, Partitioned)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Under the hot-cold layout disk 0 carries ~90% of the traffic; its
	// partition should be at least as large as the smallest cold one.
	hot := res.Partitions[0]
	minCold := math.MaxInt32
	for _, p := range res.Partitions[1:] {
		if p < minCold {
			minCold = p
		}
	}
	if hot < minCold {
		t.Errorf("hot disk got %d banks, a cold disk got %d", hot, minCold)
	}
}

func TestPartitionedVsStripedEnergy(t *testing.T) {
	// Sanity: partitioned runs produce comparable totals and valid
	// latency under both layouts.
	tr := arrayWorkload(t, 13)
	for _, l := range []Layout{Striped, HotCold} {
		res, err := Run(arrayConfig(tr, 4, l, Partitioned))
		if err != nil {
			t.Fatal(err)
		}
		if res.TotalEnergy() <= 0 || res.MeanLatency() < 0 {
			t.Errorf("%v: degenerate result", l)
		}
	}
}
