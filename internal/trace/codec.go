package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"jointpm/internal/simtime"
)

var errEOF = io.EOF

// Binary format: a fixed header followed by delta-encoded varint records.
//
//	magic "JPMT" | version u8 | pageSize uv | dataSetBytes uv |
//	dataSetPages uv | files uv | duration(us) uv | count uv |
//	then per request:
//	  dTime(us) uv | file uv | firstPage uv | pages uv | bytes uv
//
// Times are stored as microsecond deltas from the previous request, which
// varint-compresses Poisson interarrivals well.
const (
	binaryMagic   = "JPMT"
	binaryVersion = 1
)

// WriteBinary encodes the trace to w in the compact binary format.
func WriteBinary(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	if err := bw.WriteByte(binaryVersion); err != nil {
		return err
	}
	// Each varint is encoded straight into the writer's free space, kept
	// at least one varint long so the append never reallocates: encoding
	// allocates nothing per field.
	putUv := func(v uint64) {
		if bw.Available() < binary.MaxVarintLen64 {
			_ = bw.Flush() // an error sticks in bw; the last Flush returns it
		}
		_, _ = bw.Write(binary.AppendUvarint(bw.AvailableBuffer(), v)) // likewise
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

// ReadBinary decodes a trace previously written by WriteBinary. It is a
// thin collector over StreamReader, so batch and streaming decoding
// accept and reject inputs identically.
func ReadBinary(r io.Reader) (*Trace, error) {
	sr, err := NewStreamReader(r)
	if err != nil {
		return nil, err
	}
	t := sr.Header()
	prealloc := sr.Count()
	if prealloc > maxPrealloc {
		prealloc = maxPrealloc
	}
	t.Requests = make([]Request, 0, prealloc)
	for {
		req, err := sr.Next()
		if err == io.EOF {
			return &t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Requests = append(t.Requests, req)
	}
}

func usec(s simtime.Seconds) uint64 {
	if s < 0 {
		return 0
	}
	return uint64(float64(s)*1e6 + 0.5)
}

func fromUsec(u uint64) simtime.Seconds {
	return simtime.Seconds(float64(u) / 1e6)
}

// WriteText encodes the trace in a human-readable tab-separated form with
// a header line. Intended for inspection and for loading traces produced
// by external tools.
func WriteText(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# jointpm trace pagesize=%d datasetbytes=%d datasetpages=%d files=%d duration_us=%d\n",
		t.PageSize, t.DataSetBytes, t.DataSetPages, t.Files, usec(t.Duration))
	fmt.Fprintln(bw, "# time_us\tfile\tfirst_page\tpages\tbytes")
	for i := range t.Requests {
		r := &t.Requests[i]
		fmt.Fprintf(bw, "%d\t%d\t%d\t%d\t%d\n", usec(r.Time), r.File, r.FirstPage, r.Pages, r.Bytes)
	}
	return bw.Flush()
}

// ReadText decodes a trace written by WriteText. It is a thin collector
// over TextStreamReader, so batch and streaming decoding accept and
// reject inputs identically.
func ReadText(r io.Reader) (*Trace, error) {
	sr, err := NewTextStreamReader(r)
	if err != nil {
		return nil, err
	}
	t := sr.Header()
	for {
		req, err := sr.Next()
		if err == io.EOF {
			return &t, nil
		}
		if err != nil {
			return nil, err
		}
		t.Requests = append(t.Requests, req)
	}
}

func parseTextHeader(text string, t *Trace) error {
	for _, kv := range strings.Fields(text) {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			continue
		}
		key, val := kv[:eq], kv[eq+1:]
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("header field %s: %w", key, err)
		}
		switch key {
		case "pagesize":
			t.PageSize = simtime.Bytes(n)
		case "datasetbytes":
			t.DataSetBytes = simtime.Bytes(n)
		case "datasetpages":
			t.DataSetPages = n
		case "files":
			t.Files = int32(n)
		case "duration_us":
			t.Duration = fromUsec(uint64(n))
		}
	}
	if t.PageSize == 0 || t.DataSetPages == 0 {
		return errors.New("header missing pagesize/datasetpages")
	}
	return nil
}
