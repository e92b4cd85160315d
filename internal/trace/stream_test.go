package trace

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/hint"
)

// streamTestTrace builds a small multi-client trace with several hint sets
// and page deltas in both directions.
func streamTestTrace() *Trace {
	t := New("stream", 8192)
	t.Clients = []string{"alpha", "beta"}
	h1 := t.Dict.Intern(hint.Make("reqtype", "seq"))
	h2 := t.Dict.Intern(hint.Make("reqtype", "rand", "table", "stock"))
	h0 := t.Dict.Intern(nil)
	pages := []uint64{10, 11, 12, 5, 900, 11, 3, 900}
	hints := []hint.ID{h1, h1, h2, h0, h2, h1, h0, h2}
	for i, p := range pages {
		op := Read
		if i%3 == 2 {
			op = Write
		}
		t.Reqs = append(t.Reqs, Request{Page: p, Hint: hints[i], Op: op, Client: uint8(i % 2)})
	}
	return t
}

// collect drains a scanner into a slice.
func collect(t *testing.T, sc *Scanner) []Request {
	t.Helper()
	var out []Request
	for sc.Scan() {
		out = append(out, sc.Request())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestScannerBinary checks that streaming a binary trace yields exactly the
// requests, header, and dictionary of the batch reader.
func TestScannerBinary(t *testing.T) {
	tr := streamTestTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name() != tr.Name || sc.PageSize() != tr.PageSize {
		t.Errorf("header = %q/%d, want %q/%d", sc.Name(), sc.PageSize(), tr.Name, tr.PageSize)
	}
	if n, ok := sc.Count(); !ok || n != tr.Len() {
		t.Errorf("Count = %d,%v, want %d,true", n, ok, tr.Len())
	}
	if got, want := sc.Clients(), tr.Clients; len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Clients = %v, want %v", got, want)
	}
	got := collect(t, sc)
	if len(got) != tr.Len() {
		t.Fatalf("scanned %d requests, want %d", len(got), tr.Len())
	}
	for i, r := range got {
		if r != tr.Reqs[i] {
			t.Errorf("request %d = %+v, want %+v", i, r, tr.Reqs[i])
		}
	}
	for id, key := range tr.Dict.Keys() {
		if sc.Dict().Key(hint.ID(id)) != key {
			t.Errorf("dict[%d] = %q, want %q", id, sc.Dict().Key(hint.ID(id)), key)
		}
	}
}

// TestScannerText checks text streaming against ReadText on the same bytes.
func TestScannerText(t *testing.T) {
	tr := streamTestTrace()
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatal(err)
	}
	want, err := ReadText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, sc)
	if len(got) != want.Len() {
		t.Fatalf("scanned %d requests, want %d", len(got), want.Len())
	}
	for i, r := range got {
		if r != want.Reqs[i] {
			t.Errorf("request %d = %+v, want %+v", i, r, want.Reqs[i])
		}
	}
	if sc.Name() != want.Name || sc.PageSize() != want.PageSize {
		t.Errorf("header = %q/%d, want %q/%d", sc.Name(), sc.PageSize(), want.Name, want.PageSize)
	}
	if got, want := sc.Clients(), want.Clients; len(got) != len(want) {
		t.Errorf("Clients = %v, want %v", got, want)
	}
	if sc.Dict().Len() != want.Dict.Len() {
		t.Errorf("dict has %d keys, want %d", sc.Dict().Len(), want.Dict.Len())
	}
}

// TestScannerOpen round-trips through a file and exercises Close.
func TestScannerOpen(t *testing.T) {
	tr := streamTestTrace()
	path := filepath.Join(t.TempDir(), "s.trc")
	if err := Save(path, tr); err != nil {
		t.Fatal(err)
	}
	sc, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := collect(t, sc); len(got) != tr.Len() {
		t.Errorf("scanned %d requests, want %d", len(got), tr.Len())
	}
	if err := sc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestScannerTruncatedBinary ensures a cut-off stream surfaces an error
// rather than a silent short read.
func TestScannerTruncatedBinary(t *testing.T) {
	tr := streamTestTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	sc, err := NewScanner(bytes.NewReader(buf.Bytes()[:buf.Len()-3]))
	if err != nil {
		t.Fatal(err)
	}
	for sc.Scan() {
	}
	if sc.Err() == nil {
		t.Error("truncated stream scanned cleanly")
	}
}
