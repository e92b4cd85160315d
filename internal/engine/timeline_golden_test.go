package engine

import (
	"bytes"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hint"
	"repro/internal/metrics"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenTrace is a pinned single-client trace. One client means one
// producer stream, and a per-producer stream is processed in order by both
// engines, so every cache counter the timeline samples is deterministic.
func goldenTrace() *trace.Trace {
	rng := rand.New(rand.NewSource(42))
	tr := trace.New("golden", 8192)
	tr.Clients = []string{"c0"}
	hints := []hint.ID{
		tr.Dict.Intern(hint.Make("reqtype", "seq")),
		tr.Dict.Intern(hint.Make("reqtype", "rand")),
		tr.Dict.Intern(hint.Make("reqtype", "repl-write", "table", "stock")),
	}
	tr.Reqs = make([]trace.Request, 20000)
	for i := range tr.Reqs {
		r := &tr.Reqs[i]
		r.Hint = hints[rng.Intn(len(hints))]
		if rng.Intn(4) == 0 {
			r.Op = trace.Write
		}
		if rng.Intn(2) == 0 {
			r.Page = uint64(rng.Intn(300))
		} else {
			r.Page = uint64(300 + rng.Intn(6000))
		}
	}
	return tr
}

// TestTimelineGolden replays the pinned trace through the owner engine
// with a fully scripted pair of clocks and requires the resulting timeline
// CSV to be bit-identical to the checked-in golden file. This pins the CSV
// format, the column math, the request-count mark positions, and the
// determinism of the single-producer owner path, all at once. Regenerate
// with: go test ./internal/engine -run TimelineGolden -update
func TestTimelineGolden(t *testing.T) {
	tr := goldenTrace()
	s := core.NewSharded(core.Config{Capacity: 512, Window: 2000, TopK: 64, Engine: core.EngineOwner}, 4)
	defer s.Close()

	var buf bytes.Buffer
	var lat metrics.Histogram
	tl := metrics.NewTimeline(&buf)
	// Timeline clock: 100ms per row, scripted.
	rows := 0
	tl.SetClock(func() time.Duration { rows++; return time.Duration(rows) * 100 * time.Millisecond })
	CacheTimeline(tl, s, &lat)

	// Batch clock: 1ms per call; each batch observes exactly one step. The
	// single client runs batches sequentially, so the calls never race.
	step := 0
	m := &ServeMetrics{
		BatchLatency:  &lat,
		Clock:         func() time.Duration { step++; return time.Duration(step) * time.Millisecond },
		EveryRequests: 4096,
		OnMark: func(total uint64) {
			// Marks fire on the replay's client goroutine: report, don't Fatal.
			if err := tl.Tick("interval"); err != nil {
				t.Error(err)
			}
		},
	}
	res, err := Replay(InProcess{Front: s, Metrics: m}, tr.Source(), ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.Tick("final"); err != nil {
		t.Fatal(err)
	}
	if res.Reads == 0 || res.ReadHits == 0 {
		t.Fatalf("degenerate replay: %+v", res)
	}
	st := s.Stats()
	if st.Requests != uint64(len(tr.Reqs)) {
		t.Fatalf("front served %d requests, want %d", st.Requests, len(tr.Reqs))
	}

	golden := filepath.Join("testdata", "timeline.golden.csv")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("timeline CSV differs from golden:\n--- got ---\n%s\n--- want ---\n%s", buf.Bytes(), want)
	}
}
