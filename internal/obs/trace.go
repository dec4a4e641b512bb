package obs

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one span attribute, exported into the Chrome trace "args" object.
type Attr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// Event is one finished span. Times are nanoseconds since the tracer's
// epoch, so events from child tracers (one per worker) share a timeline.
type Event struct {
	// Name is the span name ("phase/cegis", "rung/full", ...).
	Name string `json:"name"`
	// Worker is the parallel-driver worker id (Chrome trace tid).
	Worker int `json:"worker"`
	// Start and Dur are nanoseconds since the tracer epoch.
	Start int64 `json:"start_ns"`
	Dur   int64 `json:"dur_ns"`
	// Trace is the 16-hex-digit propagated trace id when the span belongs
	// to a cross-process request (see propagate.go); empty otherwise.
	Trace string `json:"trace,omitempty"`
	// Attrs carry span attributes (error strings, counts).
	Attrs []Attr `json:"attrs,omitempty"`
}

// maxEvents bounds one tracer's buffer; spans finished past the cap are
// counted in Dropped instead of silently growing the heap.
const maxEvents = 1 << 20

// Tracer records spans into a per-tracer buffer. A driver creates one
// session tracer and one Child per parallel worker (or per corpus item), so
// each buffer is effectively goroutine-confined and its mutex uncontended —
// the "lock-cheap per-goroutine buffer" the parallel drivers need. The nil
// *Tracer is the disabled mode: Start returns nil spans, whose
// methods are no-ops, at the cost of one nil check and zero allocations.
type Tracer struct {
	clock  func() int64 // ns since epoch
	worker int
	trace  string // propagated trace id stamped on every span (request tracers)
	det    bool   // logical-counter clock: request tracers get private clocks

	mu       sync.Mutex
	events   []Event
	children []*Tracer
	dropped  int64
}

// New returns a tracer whose clock is wall time from now.
func New() *Tracer {
	epoch := time.Now()
	return &Tracer{clock: func() int64 { return int64(time.Since(epoch)) }}
}

// NewDeterministic returns a tracer whose clock is a logical counter
// advancing 1µs per reading — event streams become a pure function of the
// instrumented code path, which the chaos soak compares bit-for-bit across
// worker counts.
func NewDeterministic() *Tracer {
	var tick atomic.Int64
	return &Tracer{clock: func() int64 { return tick.Add(1000) }, det: true}
}

// Child returns a tracer sharing this tracer's clock and timeline whose
// spans are tagged with the given worker id and buffered separately
// (uncontended when each worker owns its child). Events() on the parent
// includes every child's events.
func (t *Tracer) Child(worker int) *Tracer {
	if t == nil {
		return nil
	}
	c := &Tracer{clock: t.clock, worker: worker, trace: t.trace, det: t.det}
	t.mu.Lock()
	t.children = append(t.children, c)
	t.mu.Unlock()
	return c
}

// RequestTracer returns a child tracer whose spans carry the given trace id
// (the Event.Trace field and the Chrome "trace" arg). Under a deterministic
// parent the request tracer also gets its own private logical clock, so one
// request's event stream is a pure function of its code path regardless of
// how other requests interleave on the server — that is what makes the
// merged client+server timeline bit-identical across worker counts. Under a
// wall clock the parent's clock is shared so all requests sit on one
// timeline. Events() on the parent includes the request's events.
func (t *Tracer) RequestTracer(trace string, worker int) *Tracer {
	if t == nil {
		return nil
	}
	c := &Tracer{clock: t.clock, worker: worker, trace: trace, det: t.det}
	if t.det {
		var tick atomic.Int64
		c.clock = func() int64 { return tick.Add(1000) }
	}
	t.mu.Lock()
	t.children = append(t.children, c)
	t.mu.Unlock()
	return c
}

// Span is an in-flight interval. The nil *Span discards everything.
type Span struct {
	t     *Tracer
	name  string
	start int64
	attrs []Attr
}

type ctxKey int

const (
	ctxTracer ctxKey = iota
	ctxMetrics
)

// NewContext returns ctx carrying the tracer and metrics registry;
// engine.NewBudget picks both up, so one NewContext at the driver
// propagates observability into every budget derived from it.
func NewContext(ctx context.Context, t *Tracer, m *Metrics) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if t != nil {
		ctx = context.WithValue(ctx, ctxTracer, t)
	}
	if m != nil {
		ctx = context.WithValue(ctx, ctxMetrics, m)
	}
	return ctx
}

// TracerFrom extracts the context's tracer (nil when absent).
func TracerFrom(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxTracer).(*Tracer)
	return t
}

// MetricsFrom extracts the context's metrics registry (nil when absent).
func MetricsFrom(ctx context.Context) *Metrics {
	if ctx == nil {
		return nil
	}
	m, _ := ctx.Value(ctxMetrics).(*Metrics)
	return m
}

// Start opens a span named name on the tracer's worker; layers reach the
// tracer through engine.Budget.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, start: t.clock(), attrs: attrs}
}

// SetAttr attaches a string attribute to the span.
func (s *Span) SetAttr(key, val string) {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, Val: val})
	}
}

// SetInt attaches an integer attribute to the span.
func (s *Span) SetInt(key string, val int64) {
	if s != nil {
		s.attrs = append(s.attrs, Attr{Key: key, Val: itoa(val)})
	}
}

// End finishes the span, appending its event to the tracer buffer.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.t.clock()
	ev := Event{
		Name: s.name, Worker: s.t.worker,
		Start: s.start, Dur: end - s.start, Trace: s.t.trace, Attrs: s.attrs,
	}
	t := s.t
	t.mu.Lock()
	if len(t.events) >= maxEvents {
		t.dropped++
	} else {
		t.events = append(t.events, ev)
	}
	t.mu.Unlock()
}

// Events returns every finished span of this tracer and its children,
// sorted by start time (then name, for a stable order under the
// deterministic clock).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Event(nil), t.events...)
	children := append([]*Tracer(nil), t.children...)
	t.mu.Unlock()
	for _, c := range children {
		out = append(out, c.Events()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Trace != out[j].Trace {
			return out[i].Trace < out[j].Trace
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Dropped returns how many spans were discarded at the buffer cap, summed
// over children.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	n := t.dropped
	children := append([]*Tracer(nil), t.children...)
	t.mu.Unlock()
	for _, c := range children {
		n += c.Dropped()
	}
	return n
}

func itoa(v int64) string {
	// strconv-free tiny formatter to keep Span.SetInt allocation-light.
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
