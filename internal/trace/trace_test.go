package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"unsafe"

	"jointpm/internal/simtime"
)

func sampleTrace() *Trace {
	return &Trace{
		PageSize:     4 * simtime.KB,
		DataSetBytes: 64 * simtime.KB,
		DataSetPages: 16,
		Files:        3,
		Duration:     10,
		Requests: []Request{
			{Time: 0.5, File: 0, FirstPage: 0, Pages: 2, Bytes: 6 * simtime.KB},
			{Time: 1.25, File: 1, FirstPage: 4, Pages: 1, Bytes: 1 * simtime.KB},
			{Time: 7.75, File: 2, FirstPage: 10, Pages: 6, Bytes: 22 * simtime.KB},
		},
	}
}

// TestRequestPacks pins Request's layout: every in-memory trace and every
// serve ring slot holds one per request.
func TestRequestPacks(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != 32 {
		t.Errorf("Request is %d bytes, want 32", got)
	}
}

func TestValidateOK(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatches(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Trace)
	}{
		{"zero page size", func(tr *Trace) { tr.PageSize = 0 }},
		{"zero data set", func(tr *Trace) { tr.DataSetPages = 0 }},
		{"out of order", func(tr *Trace) { tr.Requests[2].Time = 0.1 }},
		{"zero pages", func(tr *Trace) { tr.Requests[0].Pages = 0 }},
		{"negative page", func(tr *Trace) { tr.Requests[0].FirstPage = -1 }},
		{"past data set end", func(tr *Trace) { tr.Requests[2].FirstPage = 12 }},
		{"zero bytes", func(tr *Trace) { tr.Requests[1].Bytes = 0 }},
		{"too many bytes", func(tr *Trace) { tr.Requests[1].Bytes = 100 * simtime.KB }},
	}
	for _, tt := range tests {
		tr := sampleTrace()
		tt.mut(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tt.name)
		}
	}
}

func TestTotalsAndRate(t *testing.T) {
	tr := sampleTrace()
	if got := tr.TotalBytes(); got != 29*simtime.KB {
		t.Errorf("TotalBytes = %d", got)
	}
	want := float64(29*simtime.KB) / 10
	if got := tr.MeanRate(); got != want {
		t.Errorf("MeanRate = %g, want %g", got, want)
	}
	empty := &Trace{}
	if empty.MeanRate() != 0 {
		t.Error("empty MeanRate != 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	tr := sampleTrace()
	c := tr.Clone()
	c.Requests[0].File = 99
	if tr.Requests[0].File == 99 {
		t.Error("Clone aliases request slice")
	}
}

func TestSliceReader(t *testing.T) {
	tr := sampleTrace()
	r := NewSliceReader(tr)
	var n int
	for {
		req, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if req != tr.Requests[n] {
			t.Fatalf("request %d mismatch", n)
		}
		n++
	}
	if n != len(tr.Requests) {
		t.Fatalf("read %d requests", n)
	}
	r.Reset()
	if req, err := r.Next(); err != nil || req != tr.Requests[0] {
		t.Error("Reset did not rewind")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTraceEqual(t, tr, got)
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOTATRACE")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadBinary(strings.NewReader("JP")); err == nil {
		t.Error("truncated magic accepted")
	}
	// Right magic, wrong version.
	if _, err := ReadBinary(strings.NewReader("JPMT\xff")); err == nil {
		t.Error("bad version accepted")
	}
}

func TestBinaryTruncatedBody(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(b[:len(b)-3])); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestTextRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTraceEqual(t, tr, got)
}

func TestTextRejects(t *testing.T) {
	if _, err := ReadText(strings.NewReader("1 2 3 4 5\n")); err == nil {
		t.Error("data before header accepted")
	}
	if _, err := ReadText(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	hdr := "# jointpm trace pagesize=4096 datasetbytes=1 datasetpages=4 files=1 duration_us=1\n"
	if _, err := ReadText(strings.NewReader(hdr + "1 2 3\n")); err == nil {
		t.Error("short row accepted")
	}
	if _, err := ReadText(strings.NewReader(hdr + "a b c d e\n")); err == nil {
		t.Error("non-numeric row accepted")
	}
}

func TestEmptyTraceRoundTrip(t *testing.T) {
	tr := &Trace{PageSize: 4096, DataSetBytes: 4096, DataSetPages: 1, Files: 1, Duration: 5}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Requests) != 0 || got.Duration != 5 {
		t.Error("empty trace mangled")
	}
}

func assertTraceEqual(t *testing.T, want, got *Trace) {
	t.Helper()
	if got.PageSize != want.PageSize || got.DataSetBytes != want.DataSetBytes ||
		got.DataSetPages != want.DataSetPages || got.Files != want.Files {
		t.Fatalf("metadata mismatch: %+v vs %+v", got, want)
	}
	if d := got.Duration - want.Duration; d > 1e-6 || d < -1e-6 {
		t.Fatalf("duration %v vs %v", got.Duration, want.Duration)
	}
	if len(got.Requests) != len(want.Requests) {
		t.Fatalf("request count %d vs %d", len(got.Requests), len(want.Requests))
	}
	for i := range want.Requests {
		w, g := want.Requests[i], got.Requests[i]
		if d := g.Time - w.Time; d > 1e-5 || d < -1e-5 {
			t.Errorf("request %d time %v vs %v", i, g.Time, w.Time)
		}
		w.Time, g.Time = 0, 0
		if w != g {
			t.Errorf("request %d mismatch: %+v vs %+v", i, g, w)
		}
	}
}
