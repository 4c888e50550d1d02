package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Trace lanes: the benchmark's own calls run on laneMain, each service
// client and verifier on its own lane; spans the daemon's job timestamps
// describe go to a second process (pidDaemon) in the viewer.
const (
	pidBench     = 1
	pidDaemon    = 2
	laneMain     = 1
	laneClient   = 10 // + client index
	laneVerifier = 20 // + verifier index
)

// span is one timed call into a layer. Spans of one sweep, job or stream
// share a group.
type span struct {
	id, parent int
	group      string
	name       string
	layer      string
	kernel     string
	pid, lane  int
	start, end time.Time
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced passes pay only a nil check.
type tracer struct {
	mu     sync.Mutex
	ids    int
	groups map[string]int
	spans  []span
}

// next reserves a span id, so children can name a parent recorded after them.
func (t *tracer) next() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ids++
	return t.ids
}

// group returns a fresh group id with the given prefix.
func (t *tracer) group(prefix string) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.groups == nil {
		t.groups = map[string]int{}
	}
	t.groups[prefix]++
	return fmt.Sprintf("%s-%d", prefix, t.groups[prefix])
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.pid == 0 {
		s.pid = pidBench
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part of it
// its children cover.
func (t *tracer) selfTimes() []time.Duration {
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, c := range children[s.id] {
			a, b := t.spans[c].start, t.spans[c].end
			if a.Before(s.start) {
				a = s.start
			}
			if b.After(s.end) {
				b = s.end
			}
			if a.Before(b) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		covered := time.Duration(0)
		var cur iv
		for j, v := range ivs {
			switch {
			case j == 0:
				cur = v
			case !v.a.After(cur.b):
				if v.b.After(cur.b) {
					cur.b = v.b
				}
			default:
				covered += cur.b.Sub(cur.a)
				cur = v
			}
		}
		if len(ivs) > 0 {
			covered += cur.b.Sub(cur.a)
		}
		self[i] = s.end.Sub(s.start) - covered
	}
	return self
}

// write saves the spans as a Chrome trace_event document.
func (t *tracer) write(path string, meta map[string]string) error {
	var t0 time.Time
	for _, s := range t.spans {
		if t0.IsZero() || s.start.Before(t0) {
			t0 = s.start
		}
	}
	events := make([]obs.TraceEvent, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]interface{}{"id": s.id, "group": s.group}
		if s.parent != 0 {
			args["parent"] = s.parent
		}
		if s.kernel != "" {
			args["kernel"] = s.kernel
		}
		events = append(events, obs.TraceEvent{
			Name: s.name,
			Cat:  s.layer,
			Ph:   "X",
			Ts:   float64(s.start.Sub(t0)) / float64(time.Microsecond),
			Dur:  float64(s.end.Sub(s.start)) / float64(time.Microsecond),
			Pid:  s.pid,
			Tid:  s.lane,
			Args: args,
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTrace(f, events, meta); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
