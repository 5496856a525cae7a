package main

import (
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/align"
	"repro/internal/alphabet"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer. Spans of one operation share op; parent is the id of the span
// that caused this one (0 for a root).
type span struct {
	id, parent int64
	op         int64
	name       string
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. Its methods are safe
// for concurrent use: kernel spans arrive from every rank goroutine.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin allocates a span id and returns it with the span's start time;
// record stores the span once it has ended.
func (t *tracer) begin() (int64, time.Duration) {
	return t.nextID.Add(1), t.now()
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a root span of its own operation and returns the
// span's duration.
func (t *tracer) timed(name string, op int64, fn func() error) (time.Duration, error) {
	id, start := t.begin()
	err := fn()
	end := t.now()
	t.record(span{id: id, op: op, name: name, start: start, end: end})
	return end - start, err
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// logSelfTimes prints, per span name, the span count, the summed duration
// and the summed self time: a span's duration minus the part of it its
// children cover.
func (t *tracer) logSelfTimes(log io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int64][]span)
	for _, s := range t.spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	type row struct {
		n           int
		total, self time.Duration
	}
	rows := make(map[string]*row)
	var names []string
	for _, s := range t.spans {
		r := rows[s.name]
		if r == nil {
			r = &row{}
			rows[s.name] = r
			names = append(names, s.name)
		}
		r.n++
		r.total += s.end - s.start
		r.self += s.end - s.start - covered(s, kids[s.id])
	}
	slices.Sort(names)
	fmt.Fprintf(log, "%-22s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, name := range names {
		r := rows[name]
		fmt.Fprintf(log, "%-22s %8d %12.4f %12.4f\n", name, r.n, r.total.Seconds(), r.self.Seconds())
	}
}

// covered is the length of the part of root's interval that the union of
// kids covers.
func covered(root span, kids []span) time.Duration {
	kids = slices.Clone(kids)
	slices.SortFunc(kids, func(a, b span) int { return int(a.start - b.start) })
	var total time.Duration
	cur := root.start
	for _, k := range kids {
		s, e := max(k.start, cur), min(k.end, root.end)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// opTrace summarises one operation's root span against its children.
type opTrace struct {
	total    time.Duration // root span duration
	self     time.Duration // root time covered by no child span
	busy     time.Duration // sum of child durations (overlapping ranks add up)
	children int
}

// summarize returns the trace of the root span rootID: children are the
// spans whose parent is rootID.
func (t *tracer) summarize(rootID int64) opTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	var root span
	var kids []span
	for _, s := range t.spans {
		switch {
		case s.id == rootID:
			root = s
		case s.parent == rootID:
			kids = append(kids, s)
		}
	}
	out := opTrace{total: root.end - root.start, children: len(kids)}
	for _, k := range kids {
		out.busy += k.end - k.start
	}
	out.self = out.total - covered(root, kids)
	return out
}

// kernelTracing is the switch and the parent the timing kernel records
// under: parent 0 turns kernel spans off.
type kernelTracing struct {
	tr     *tracer
	parent atomic.Int64
	op     atomic.Int64
}

// traced is the state every timing kernel reads. Kernels are created by
// the process-wide registry, out of the benchmark's reach, so the state
// is process-wide too; one run traces at a time.
var traced = &kernelTracing{}

// timingKernel wraps a registered alignment kernel and records one span
// per Align call under the operation's root span while tracing is on.
type timingKernel struct {
	name  string
	inner align.Kernel
}

func (k *timingKernel) Name() string         { return k.name }
func (k *timingKernel) CellsComputed() int64 { return k.inner.CellsComputed() }

func (k *timingKernel) Align(a, b []alphabet.Code, seeds []align.Seed, p align.Params) (align.Result, error) {
	parent := traced.parent.Load()
	if parent == 0 {
		return k.inner.Align(a, b, seeds, p)
	}
	tr := traced.tr
	id, start := tr.begin()
	res, err := k.inner.Align(a, b, seeds, p)
	tr.record(span{id: id, parent: parent, op: traced.op.Load(), name: "align", start: start, end: tr.now()})
	return res, err
}

var timingKernels sync.Map // kernel name -> its timing wrapper's name

// tracingKernel registers (once per process) a timing wrapper around the
// named kernel and returns the wrapper's registry name.
func tracingKernel(inner string) (string, error) {
	if v, ok := timingKernels.Load(inner); ok {
		return v.(string), nil
	}
	factory, err := align.KernelFactory(inner)
	if err != nil {
		return "", err
	}
	name := "perfbench-" + inner
	align.RegisterKernel(func() align.Kernel { return &timingKernel{name: name, inner: factory()} })
	timingKernels.Store(inner, name)
	return name, nil
}
