package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/quick"

	"jointpm/internal/simtime"
)

// writeBinaryOracle is the straightforward binary encoder WriteBinary must
// match byte for byte: each varint put into its own buffer and written.
func writeBinaryOracle(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(binaryMagic)
	bw.WriteByte(binaryVersion)
	putUv := func(v uint64) {
		var buf [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(buf[:], v)
		bw.Write(buf[:n])
	}
	putUv(uint64(t.PageSize))
	putUv(uint64(t.DataSetBytes))
	putUv(uint64(t.DataSetPages))
	putUv(uint64(t.Files))
	putUv(usec(t.Duration))
	putUv(uint64(len(t.Requests)))
	prev := uint64(0)
	for i := range t.Requests {
		r := &t.Requests[i]
		ts := usec(r.Time)
		if ts < prev {
			return fmt.Errorf("trace: out-of-order request %d", i)
		}
		putUv(ts - prev)
		prev = ts
		putUv(uint64(r.File))
		putUv(uint64(r.FirstPage))
		putUv(uint64(r.Pages))
		putUv(uint64(r.Bytes))
	}
	return bw.Flush()
}

// wideTrace builds n time-ordered requests whose fields span every varint
// length from 1 to 9 bytes, so an encoding crosses the writer's buffer at
// every offset within a varint.
func wideTrace(rng *rand.Rand, n int) *Trace {
	wide := func() int64 { return rng.Int63() >> rng.Intn(63) }
	t := &Trace{
		PageSize:     simtime.Bytes(wide()),
		DataSetBytes: simtime.Bytes(wide()),
		DataSetPages: wide(),
		Files:        rng.Int31(),
		Duration:     simtime.Seconds(rng.Float64() * 1e6),
	}
	now := 0.0
	for i := 0; i < n; i++ {
		now += rng.Float64() * float64(int64(1)<<rng.Intn(20)) * 1e-6
		t.Requests = append(t.Requests, Request{
			Time:      simtime.Seconds(now),
			File:      rng.Int31() >> rng.Intn(31),
			FirstPage: wide(),
			Pages:     rng.Int31() >> rng.Intn(31),
			Bytes:     simtime.Bytes(wide()),
		})
	}
	return t
}

// TestWriteBinaryMatchesOracle: the encoder writes exactly the oracle's
// bytes, on small valid traces and on long ones with every varint length.
func TestWriteBinaryMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, tr := range []*Trace{randomTrace(rng), wideTrace(rng, rng.Intn(5000))} {
			var got, want bytes.Buffer
			if err := WriteBinary(&got, tr); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			if err := writeBinaryOracle(&want, tr); err != nil {
				t.Logf("seed %d: oracle: %v", seed, err)
				return false
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Logf("seed %d: %d requests: encodings differ (%d and %d bytes)", seed, len(tr.Requests), got.Len(), want.Len())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBinaryAllocsIndependentOfLength: encoding allocates the same
// whatever the request count, so nothing is allocated per field.
func TestWriteBinaryAllocsIndependentOfLength(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	allocs := func(tr *Trace) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := WriteBinary(io.Discard, tr); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(wideTrace(rng, 10)), allocs(wideTrace(rng, 20000))
	if short != long {
		t.Errorf("WriteBinary: %v allocations for 10 requests, %v for 20000", short, long)
	}
}
