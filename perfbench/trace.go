package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"columnsgd/internal/cluster"
)

// span is one timed call at a layer boundary: a master-side client call
// (handler false) or the worker-side dispatch it caused (handler true).
type span struct {
	worker  int
	method  string
	a, b    int64 // run-clock nanoseconds
	handler bool
}

// recorder keeps spans in memory for the traced run. Spans are recorded
// only while on is set, so a traced run can alternate traced and
// untraced rounds and report the tracing overhead.
type recorder struct {
	base  time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// take returns and clears the recorded spans.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans
	r.spans = nil
	return s
}

// tracedClient times every call the engine makes to one worker.
type tracedClient struct {
	cluster.Client
	rec    *recorder
	worker int
}

func (c *tracedClient) Call(method string, args, reply interface{}) error {
	if !c.rec.on.Load() {
		return c.Client.Call(method, args, reply)
	}
	a := c.rec.now()
	err := c.Client.Call(method, args, reply)
	c.rec.add(span{worker: c.worker, method: method, a: a, b: c.rec.now()})
	return err
}

func wrapClients(rec *recorder, cs []cluster.Client) []cluster.Client {
	out := make([]cluster.Client, len(cs))
	for i, c := range cs {
		out[i] = &tracedClient{Client: c, rec: rec, worker: i}
	}
	return out
}

// tracedService re-registers every listed method of a worker service
// behind a timer, so the worker-side handler time of each call is known.
func tracedService(rec *recorder, worker int, inner *cluster.Service, methods []string) *cluster.Service {
	svc := cluster.NewService()
	for _, m := range methods {
		m := m
		svc.Register(m, func(args interface{}) (interface{}, error) {
			if !rec.on.Load() {
				return inner.Dispatch(m, args)
			}
			a := rec.now()
			v, err := inner.Dispatch(m, args)
			rec.add(span{worker: worker, method: m, a: a, b: rec.now(), handler: true})
			return v, err
		})
	}
	return svc
}

// transportTimes pairs each client call with the one handler span of the
// same worker that lies inside it and returns call minus handler time in
// milliseconds: encode, transport and decode on both sides.
func transportTimes(spans []span) []float64 {
	handlers := map[int][]span{}
	for _, s := range spans {
		if s.handler {
			handlers[s.worker] = append(handlers[s.worker], s)
		}
	}
	for _, hs := range handlers {
		sort.Slice(hs, func(i, j int) bool { return hs[i].a < hs[j].a })
	}
	var out []float64
	for _, c := range spans {
		if c.handler {
			continue
		}
		hs := handlers[c.worker]
		var match *span
		n := 0
		for i := sort.Search(len(hs), func(i int) bool { return hs[i].a >= c.a }); i < len(hs) && hs[i].a < c.b; i++ {
			if hs[i].method == c.method && hs[i].b <= c.b {
				match = &hs[i]
				n++
			}
		}
		if n == 1 {
			out = append(out, float64((c.b-c.a)-(match.b-match.a))/1e6)
		}
	}
	return out
}
