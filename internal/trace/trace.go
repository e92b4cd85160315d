// Package trace defines the block I/O request traces exchanged between the
// workload generators and the cache simulator, mirroring the paper's
// trace-driven methodology (§6): a trace is a sequence of (page, read/write,
// hint set) records plus the hint dictionary that interns the hint sets.
//
// The package also provides the two trace transformations the evaluation
// needs: round-robin interleaving of multiple client traces (§6.4) and
// synthetic noise-hint injection (§6.3).
//
// Traces exist in three serialised forms. Binary v1 ("CLICTRC1", io.go) is
// the classic whole-trace format: a complete header (dictionary, request
// count) followed by delta-encoded records — it requires the full trace in
// RAM to write. Binary v2 ("CLICTRC2", v2.go) is the streaming format:
// block-framed records with incremental dictionary sections and a
// count/checksum trailer, writable and scannable in bounded memory at
// paper scale (hundreds of millions of requests). The text format
// (WriteText) is for humans. Scanner sniffs and reads all three; Load
// collects any of them into an in-memory Trace. The Sink/Iterator/Source
// interfaces (sink.go) let generators and replay paths pipe requests
// through any of these without materialising a []Request.
package trace

import (
	"fmt"

	"repro/internal/hint"
)

// Op is the request operation.
type Op uint8

const (
	// Read is a block read request.
	Read Op = iota
	// Write is a block write request.
	Write
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Request is one block I/O request as seen by the storage server. The
// request's sequence number is implicit: it is the request's index in the
// trace (the server tags requests with sequence numbers on arrival, §3).
type Request struct {
	// Page is the requested block number in the server's address space.
	Page uint64
	// Hint is the interned hint set attached by the client.
	Hint hint.ID
	// Op is Read or Write.
	Op Op
	// Client identifies the issuing client in interleaved traces (0 for
	// single-client traces).
	Client uint8
}

// Trace is an in-memory I/O request trace.
type Trace struct {
	// Name identifies the trace (e.g. "DB2_C60").
	Name string
	// PageSize is the block size in bytes (informational).
	PageSize int
	// Dict interns all hint sets referenced by Reqs.
	Dict *hint.Dict
	// Reqs is the request sequence.
	Reqs []Request
	// Clients names each client ID used in Reqs; len(Clients) >= 1.
	Clients []string
}

// New returns an empty trace with a fresh dictionary and a single client.
func New(name string, pageSize int) *Trace {
	return &Trace{
		Name:     name,
		PageSize: pageSize,
		Dict:     hint.NewDict(),
		Clients:  []string{name},
	}
}

// Append adds a request issued by client 0.
func (t *Trace) Append(page uint64, op Op, h hint.ID) {
	t.Reqs = append(t.Reqs, Request{Page: page, Hint: h, Op: op})
}

// Len returns the number of requests.
func (t *Trace) Len() int { return len(t.Reqs) }

// Stats summarises a trace, providing the columns of the paper's Figure 5.
type Stats struct {
	Name          string
	Requests      int
	Reads         int
	Writes        int
	DistinctPages int
	DistinctHints int
	Clients       int
}

// Stats scans the trace and returns its summary.
func (t *Trace) Stats() Stats {
	pages := make(map[uint64]struct{})
	hints := make(map[hint.ID]struct{})
	s := Stats{Name: t.Name, Requests: len(t.Reqs), Clients: len(t.Clients)}
	for _, r := range t.Reqs {
		pages[r.Page] = struct{}{}
		hints[r.Hint] = struct{}{}
		if r.Op == Read {
			s.Reads++
		} else {
			s.Writes++
		}
	}
	s.DistinctPages = len(pages)
	s.DistinctHints = len(hints)
	return s
}

// Validate checks internal consistency: every referenced hint ID must be
// interned in Dict and every client ID must be named in Clients.
func (t *Trace) Validate() error {
	if t.Dict == nil {
		return fmt.Errorf("trace %q: nil dictionary", t.Name)
	}
	n := uint32(t.Dict.Len())
	for i, r := range t.Reqs {
		if r.Hint >= n {
			return fmt.Errorf("trace %q: request %d references hint %d outside dictionary (len %d)", t.Name, i, r.Hint, n)
		}
		if int(r.Client) >= len(t.Clients) {
			return fmt.Errorf("trace %q: request %d references client %d outside Clients (len %d)", t.Name, i, r.Client, len(t.Clients))
		}
	}
	return nil
}

// Interleave merges traces round-robin, one request from each in turn,
// truncating all inputs to the length of the shortest so no trace is biased
// by its length, exactly as the multi-client experiment prescribes (§6.4).
// Hint types from each input are namespaced by the input's name so that the
// same hint type from two clients remains distinct (§2). Page spaces are
// disjoint: each client's pages are remapped into a private region.
func Interleave(name string, traces ...*Trace) (*Trace, error) {
	if len(traces) == 0 {
		return nil, fmt.Errorf("trace: Interleave needs at least one input")
	}
	if len(traces) > 256 {
		return nil, fmt.Errorf("trace: Interleave supports at most 256 clients, got %d", len(traces))
	}
	shortest := traces[0].Len()
	for _, t := range traces[1:] {
		if t.Len() < shortest {
			shortest = t.Len()
		}
	}
	out := New(name, traces[0].PageSize)
	out.Clients = out.Clients[:0]
	out.Reqs = make([]Request, 0, shortest*len(traces))

	// Per-input hint remap table and page-space offset.
	remaps := make([][]hint.ID, len(traces))
	var pageBase uint64
	bases := make([]uint64, len(traces))
	for i, t := range traces {
		out.Clients = append(out.Clients, t.Name)
		remaps[i] = make([]hint.ID, t.Dict.Len())
		for id, key := range t.Dict.Keys() {
			set, err := hint.Parse(key)
			if err != nil {
				return nil, fmt.Errorf("trace: interleaving %q: %w", t.Name, err)
			}
			remaps[i][id] = out.Dict.Intern(set.Namespace(t.Name))
		}
		bases[i] = pageBase
		maxPage := uint64(0)
		for _, r := range t.Reqs {
			if r.Page > maxPage {
				maxPage = r.Page
			}
		}
		pageBase += maxPage + 1
	}
	for pos := 0; pos < shortest; pos++ {
		for i, t := range traces {
			r := t.Reqs[pos]
			out.Reqs = append(out.Reqs, Request{
				Page:   bases[i] + r.Page,
				Hint:   remaps[i][r.Hint],
				Op:     r.Op,
				Client: uint8(i),
			})
		}
	}
	return out, nil
}

// Truncate returns a shallow copy of the trace limited to the first n
// requests (or the whole trace if n exceeds its length).
func (t *Trace) Truncate(n int) *Trace {
	if n > len(t.Reqs) {
		n = len(t.Reqs)
	}
	c := *t
	c.Reqs = t.Reqs[:n]
	return &c
}
