// Package trace defines the disk-cache access trace format that connects
// the workload generator, the synthesizer, and the simulator — the arrows
// in Fig. 6(b) of the paper. A trace is a time-ordered sequence of
// file-level read requests; the cache simulator expands each request into
// page references.
package trace

import (
	"errors"
	"fmt"

	"jointpm/internal/simtime"
)

// Request is one client request against the server's file set. Page
// indices live in a single global namespace: file f's data occupies the
// contiguous page range [FirstPage, FirstPage+Pages). The two 32-bit
// fields come last, so a Request packs into 32 bytes with no padding.
type Request struct {
	Time      simtime.Seconds // arrival time
	FirstPage int64           // first page touched
	Bytes     simtime.Bytes   // true byte size (≤ Pages * page size)
	File      int32           // file id, for popularity/data-set transforms
	Pages     int32           // number of consecutive pages touched
}

// Trace is an in-memory access trace plus the metadata the synthesizer
// and the simulator need to interpret it.
type Trace struct {
	PageSize     simtime.Bytes // bytes per page
	DataSetBytes simtime.Bytes // total bytes across all files
	DataSetPages int64         // total pages across all files
	Files        int32         // number of files
	Duration     simtime.Seconds
	Requests     []Request
}

// Validate checks internal consistency: time-ordering, page ranges within
// the data set, positive sizes. It returns the first violation found.
func (t *Trace) Validate() error {
	if t.PageSize <= 0 {
		return errors.New("trace: non-positive page size")
	}
	if t.DataSetPages <= 0 {
		return errors.New("trace: non-positive data set")
	}
	last := simtime.Seconds(0)
	for i := range t.Requests {
		r := &t.Requests[i]
		if r.Time < last {
			return fmt.Errorf("trace: request %d at %v before predecessor at %v", i, r.Time, last)
		}
		last = r.Time
		if r.Pages <= 0 {
			return fmt.Errorf("trace: request %d touches %d pages", i, r.Pages)
		}
		if r.FirstPage < 0 || r.FirstPage+int64(r.Pages) > t.DataSetPages {
			return fmt.Errorf("trace: request %d pages [%d,%d) outside data set of %d pages",
				i, r.FirstPage, r.FirstPage+int64(r.Pages), t.DataSetPages)
		}
		if r.Bytes <= 0 || r.Bytes > simtime.Bytes(int64(r.Pages))*t.PageSize {
			return fmt.Errorf("trace: request %d has %d bytes over %d pages of %v",
				i, r.Bytes, r.Pages, t.PageSize)
		}
	}
	return nil
}

// TotalBytes returns the sum of request byte sizes.
func (t *Trace) TotalBytes() simtime.Bytes {
	var s simtime.Bytes
	for i := range t.Requests {
		s += t.Requests[i].Bytes
	}
	return s
}

// MeanRate returns the average offered byte rate over the trace duration.
func (t *Trace) MeanRate() float64 {
	if t.Duration <= 0 {
		return 0
	}
	return float64(t.TotalBytes()) / float64(t.Duration)
}

// Clone deep-copies the trace so a synthesizer pass can transform it
// without aliasing the source.
func (t *Trace) Clone() *Trace {
	c := *t
	c.Requests = make([]Request, len(t.Requests))
	copy(c.Requests, t.Requests)
	return &c
}

// Reader yields requests in time order. Next returns io.EOF after the
// final request.
type Reader interface {
	Next() (Request, error)
}

// SliceReader adapts an in-memory trace to the Reader interface.
type SliceReader struct {
	reqs []Request
	i    int
}

// NewSliceReader returns a Reader over the trace's requests.
func NewSliceReader(t *Trace) *SliceReader {
	return &SliceReader{reqs: t.Requests}
}

// Next implements Reader.
func (r *SliceReader) Next() (Request, error) {
	if r.i >= len(r.reqs) {
		return Request{}, errEOF
	}
	req := r.reqs[r.i]
	r.i++
	return req, nil
}

// Reset rewinds the reader to the first request.
func (r *SliceReader) Reset() { r.i = 0 }
