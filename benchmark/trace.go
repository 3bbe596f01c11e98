package main

import (
	"context"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls into
// each layer: the client call, a middleware round the router's handler, a
// spanning RoundTripper on the router's upstream client, a middleware round
// each backend's handler, and every Engine / live.Service call. They are
// kept in memory and only analysed after the run.

// span is one timed interval. parent is the index+1 of the span that caused
// it (0: a root, i.e. a client call); request is the root's index+1, shared
// by every span the client call caused (filled in by buildTree, so that
// recording never reads another goroutine's span).
type span struct {
	name       string
	start, end int64 // ns since the tracer's epoch
	parent     int32
	request    int32
	items      int32 // steps carried (client and handler spans)
}

// tracer hands out span slots from a fixed arena with one atomic add, so
// recording from client, router and backend goroutines needs no lock. A nil
// tracer records nothing.
type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int32
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

// begin opens a span and returns its id (index+1), or 0 when the tracer is
// nil or full.
func (t *tracer) begin(name string, parent int32, items int) int32 {
	if t == nil {
		return 0
	}
	i := t.n.Add(1)
	if int(i) > len(t.spans) {
		t.dropped.Add(1)
		return 0
	}
	s := &t.spans[i-1]
	s.name, s.parent, s.items = name, parent, int32(items)
	s.start = int64(time.Since(t.epoch))
	return i
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].end = int64(time.Since(t.epoch))
}

// recorded returns the finished spans.
func (t *tracer) recorded() []span {
	n := int(t.n.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// spanHeader carries the causing span's id across an HTTP hop.
const spanHeader = "X-Bench-Span"

type spanKey struct{}

// spanMiddleware wraps a handler in a span whose parent is the span named
// by the request's spanHeader, and exposes the new span to the handler's
// outgoing requests through the request context. Requests that carry no
// span header (session opens, health probes) are not recorded.
func spanMiddleware(t *tracer, layer string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		if parent == 0 {
			next.ServeHTTP(w, r)
			return
		}
		name := layer + ".step"
		if r.URL.Path == "/batch" {
			name = layer + ".batch"
		}
		id := t.begin(name, int32(parent), 0)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
		t.end(id)
	})
}

// spanTransport is the spanning RoundTripper handed to the router's wire
// client: one span per upstream round trip, parented on the router handler
// span found in the request context, and named to the next hop. A request
// whose context carries no span — every request of an untraced run, health
// probes in a traced one — goes straight to the pool.
type spanTransport struct {
	t    *tracer
	next http.RoundTripper
}

func (st *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, _ := req.Context().Value(spanKey{}).(int32)
	if parent == 0 {
		return st.next.RoundTrip(req)
	}
	id := st.t.begin("wire.upstream", parent, 0)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(int(id)))
	resp, err := st.next.RoundTrip(req)
	// The round trip proper ends when headers arrive; the body of these
	// small responses is already buffered behind them.
	st.t.end(id)
	return resp, err
}

// interval is a half-open time range.
type interval struct{ lo, hi int64 }

// union returns the total length covered by the intervals.
func union(iv []interval) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a].lo < iv[b].lo })
	var total, hi int64
	for i, v := range iv {
		if i == 0 || v.lo > hi {
			total += v.hi - v.lo
			hi = v.hi
		} else if v.hi > hi {
			total += v.hi - hi
			hi = v.hi
		}
	}
	return total
}

// spanTree indexes recorded spans by parent.
type spanTree struct {
	spans    []span
	children map[int32][]int32 // span id → child ids
}

func buildTree(spans []span) *spanTree {
	tr := &spanTree{spans: spans, children: make(map[int32][]int32)}
	for i := range spans {
		// A parent's id is always allocated before its children's.
		if p := spans[i].parent; p != 0 && int(p) <= i {
			tr.children[p] = append(tr.children[p], int32(i+1))
			spans[i].request = spans[p-1].request
		} else {
			spans[i].request = int32(i + 1)
		}
	}
	return tr
}

// covered is the part of span id's interval its children cover.
func (tr *spanTree) covered(id int32) int64 {
	kids := tr.children[id]
	if len(kids) == 0 {
		return 0
	}
	s := &tr.spans[id-1]
	iv := make([]interval, 0, len(kids))
	for _, k := range kids {
		c := &tr.spans[k-1]
		lo, hi := c.start, c.end
		if lo < s.start {
			lo = s.start
		}
		if hi > s.end {
			hi = s.end
		}
		if hi > lo {
			iv = append(iv, interval{lo, hi})
		}
	}
	return union(iv)
}

// self is a span's duration minus the part its children cover.
func (tr *spanTree) self(id int32) int64 {
	s := &tr.spans[id-1]
	return s.end - s.start - tr.covered(id)
}
