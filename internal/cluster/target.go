package cluster

import (
	"repro/internal/engine"
	"repro/internal/netclient"
	"repro/internal/trace"
)

// Target is a cluster as an engine.Target: engine.Replay gives each client
// its own Router (one connection per node) and pipelines batches through
// it, with adaptive batch sizing unless ReplayOptions.BatchSize pins it.
type Target struct {
	nodes    []Node
	labelled bool // policy and capacity hold the first handshake's label
	policy   string
	capacity int
}

// NewTarget returns the cluster of nodes as a replay target.
func NewTarget(nodes []Node) *Target { return &Target{nodes: nodes} }

// Open implements engine.Target: dial every node, handshake, and start a
// router pipeline.
func (t *Target) Open(client string, keys []string, opt engine.ReplayOptions, tally func(isRead, hits []bool)) (engine.Session, error) {
	r, err := t.dial(client, keys)
	if err != nil {
		return nil, err
	}
	depth := opt.Depth
	if depth <= 0 {
		depth = netclient.DefaultDepth
	}
	s := &session{r: r, sizer: netclient.NewBatchSizer(opt.BatchSize)}
	s.pl = r.Pipeline(depth, func(_ any, isRead, hits []bool, _ int, rttNs int64) error {
		s.sizer.Observe(rttNs, len(isRead))
		tally(isRead, hits)
		return nil
	})
	return s, nil
}

// Label implements engine.Target from the first session's handshakes, or
// from throwaway ones when the replay opened no session.
func (t *Target) Label() (string, int, error) {
	if !t.labelled {
		r, err := t.dial("probe", nil)
		if err != nil {
			return "", 0, err
		}
		r.Close()
	}
	return t.policy, t.capacity, nil
}

func (t *Target) dial(client string, keys []string) (*Router, error) {
	r, err := DialRouter(t.nodes, 0)
	if err != nil {
		return nil, err
	}
	if err := r.Hello(client, keys); err != nil {
		r.Close()
		return nil, err
	}
	if !t.labelled {
		t.policy, t.capacity, t.labelled = r.PolicyName(), r.Capacity(), true
	}
	return r, nil
}

// session is one client's router pipeline.
type session struct {
	r     *Router
	pl    *RouterPipeline
	sizer *netclient.BatchSizer
}

func (s *session) Announce(keys []string) error      { return s.r.Announce(keys) }
func (s *session) Submit(reqs []trace.Request) error { return s.pl.Submit(reqs, nil) }
func (s *session) Drain() error                      { return s.pl.Drain() }
func (s *session) Close() error                      { return s.r.Close() }
func (s *session) BatchSize() int                    { return s.sizer.Current() }
