package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format
// (chrome://tracing and Perfetto both load it). We emit complete ("X")
// duration events plus thread_name metadata ("M") events naming the worker
// lanes.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace file.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace serialises the tracer's events (including children) as a
// Chrome trace-event JSON object, one lane (tid) per worker.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(events)+8)}

	workers := map[int]bool{}
	for _, ev := range events {
		workers[ev.Worker] = true
	}
	ids := make([]int, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: id,
			Args: map[string]any{"name": fmt.Sprintf("worker %d", id)},
		})
	}

	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Name, Cat: "obs", Ph: "X",
			TS: float64(ev.Start) / 1e3, Dur: float64(ev.Dur) / 1e3,
			PID: 1, TID: ev.Worker,
		}
		if len(ev.Attrs) > 0 {
			ce.Args = make(map[string]any, len(ev.Attrs)+1)
			for _, a := range ev.Attrs {
				ce.Args[a.Key] = a.Val
			}
		}
		if ev.Trace != "" {
			if ce.Args == nil {
				ce.Args = map[string]any{}
			}
			ce.Args["trace"] = ev.Trace
		}
		out.TraceEvents = append(out.TraceEvents, ce)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// ValidateChromeTrace checks that data is a well-formed Chrome trace-event
// JSON object as this package emits it: a traceEvents array whose entries
// all have a name, a known phase, non-negative timestamps and durations,
// and consistent pid/tid fields. cmd/tracecheck runs it in CI against the
// traced loopsum smoke.
func ValidateChromeTrace(data []byte) error {
	var tr struct {
		TraceEvents []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		return fmt.Errorf("obs: trace is not valid JSON: %w", err)
	}
	if tr.TraceEvents == nil {
		return fmt.Errorf("obs: trace has no traceEvents array")
	}
	durEvents := 0
	for i, ev := range tr.TraceEvents {
		var name, ph string
		if raw, ok := ev["name"]; !ok || json.Unmarshal(raw, &name) != nil || name == "" {
			return fmt.Errorf("obs: event %d: missing or empty name", i)
		}
		if raw, ok := ev["ph"]; !ok || json.Unmarshal(raw, &ph) != nil {
			return fmt.Errorf("obs: event %d (%s): missing phase", i, name)
		}
		switch ph {
		case "M":
			continue
		case "X":
		default:
			return fmt.Errorf("obs: event %d (%s): unexpected phase %q", i, name, ph)
		}
		var ts, dur float64
		if raw, ok := ev["ts"]; !ok || json.Unmarshal(raw, &ts) != nil {
			return fmt.Errorf("obs: event %d (%s): missing ts", i, name)
		}
		if raw, ok := ev["dur"]; ok {
			if json.Unmarshal(raw, &dur) != nil {
				return fmt.Errorf("obs: event %d (%s): bad dur", i, name)
			}
		}
		if ts < 0 || dur < 0 {
			return fmt.Errorf("obs: event %d (%s): negative ts/dur", i, name)
		}
		durEvents++
	}
	if durEvents == 0 {
		return fmt.Errorf("obs: trace has no duration events")
	}
	return nil
}

// MergeChromeTraces joins a client-side and a server-side Chrome trace into
// one timeline, pairing spans through the propagated trace id (the "trace"
// arg stamped by WriteChromeTrace from Event.Trace). Client events land on
// pid 1, server events on pid 2; each trace id gets its own lane (tid), so
// a request's client attempt and the server work it triggered sit stacked
// in the viewer. Server event groups are shifted so each request's server
// work aligns with the start of the client span that carried its trace id,
// and the whole timeline is re-based to start at zero.
//
// The output is canonical: lanes are assigned from the sorted trace-id set,
// events are sorted by (trace, pid, start, duration, name), and metadata is
// regenerated — so two runs whose per-request event streams match produce
// byte-identical merged traces. With deterministic tracers on both sides
// (per-request logical clocks) that holds across worker counts, which is
// exactly what the merged-trace replay test asserts.
func MergeChromeTraces(client, server []byte) ([]byte, error) {
	cev, err := parseChromeEvents(client)
	if err != nil {
		return nil, fmt.Errorf("obs: client trace: %w", err)
	}
	sev, err := parseChromeEvents(server)
	if err != nil {
		return nil, fmt.Errorf("obs: server trace: %w", err)
	}

	traceOf := func(ev chromeEvent) string {
		if ev.Args == nil {
			return ""
		}
		s, _ := ev.Args["trace"].(string)
		return s
	}

	// Lane assignment: sorted trace ids, untraced events on lane 0.
	ids := map[string]bool{}
	for _, ev := range cev {
		if id := traceOf(ev); id != "" {
			ids[id] = true
		}
	}
	for _, ev := range sev {
		if id := traceOf(ev); id != "" {
			ids[id] = true
		}
	}
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	lane := map[string]int{"": 0}
	for i, id := range sorted {
		lane[id] = i + 1
	}

	// Align each trace's server group onto its client group's start.
	groupMin := func(evs []chromeEvent) map[string]float64 {
		min := map[string]float64{}
		for _, ev := range evs {
			id := traceOf(ev)
			if cur, ok := min[id]; !ok || ev.TS < cur {
				min[id] = ev.TS
			}
		}
		return min
	}
	cmin, smin := groupMin(cev), groupMin(sev)

	out := chromeTrace{DisplayTimeUnit: "ms"}
	add := func(evs []chromeEvent, pid int, shiftFor map[string]float64) {
		for _, ev := range evs {
			id := traceOf(ev)
			if shiftFor != nil {
				if base, ok := shiftFor[id]; ok {
					ev.TS += base - smin[id]
				}
			}
			ev.PID = pid
			ev.TID = lane[id]
			out.TraceEvents = append(out.TraceEvents, ev)
		}
	}
	add(cev, 1, nil)
	// Server groups whose trace id also appears client-side shift onto the
	// client anchor; orphaned server traces keep their own timeline.
	shift := map[string]float64{}
	for id := range smin {
		if base, ok := cmin[id]; ok && id != "" {
			shift[id] = base
		}
	}
	add(sev, 2, shift)

	if len(out.TraceEvents) == 0 {
		return nil, fmt.Errorf("obs: merge: no duration events on either side")
	}

	// Re-base the merged timeline to start at zero.
	minTS := out.TraceEvents[0].TS
	for _, ev := range out.TraceEvents {
		if ev.TS < minTS {
			minTS = ev.TS
		}
	}
	for i := range out.TraceEvents {
		out.TraceEvents[i].TS -= minTS
	}

	sort.SliceStable(out.TraceEvents, func(i, j int) bool {
		a, b := out.TraceEvents[i], out.TraceEvents[j]
		if ta, tb := traceOf(a), traceOf(b); ta != tb {
			return ta < tb
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Dur != b.Dur {
			return a.Dur > b.Dur // parents before children at equal start
		}
		return a.Name < b.Name
	})

	// Regenerated metadata: process names plus one thread name per lane.
	meta := []chromeEvent{
		{Name: "process_name", Ph: "M", PID: 1, TID: 0, Args: map[string]any{"name": "client"}},
		{Name: "process_name", Ph: "M", PID: 2, TID: 0, Args: map[string]any{"name": "server"}},
	}
	for _, pid := range []int{1, 2} {
		for i, id := range sorted {
			meta = append(meta, chromeEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: i + 1,
				Args: map[string]any{"name": "req " + id},
			})
		}
	}
	out.TraceEvents = append(meta, out.TraceEvents...)

	return json.Marshal(out)
}

// parseChromeEvents loads the duration ("X") events of a Chrome trace file,
// dropping metadata — the merge regenerates its own.
func parseChromeEvents(data []byte) ([]chromeEvent, error) {
	var tr chromeTrace
	if err := json.Unmarshal(data, &tr); err != nil {
		return nil, err
	}
	evs := make([]chromeEvent, 0, len(tr.TraceEvents))
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			evs = append(evs, ev)
		}
	}
	return evs, nil
}

// flameRow is one aggregated span name of the flame summary.
type flameRow struct {
	name  string
	count int64
	total int64 // ns
}

// FlameSummary renders a human-readable aggregation of the trace: one row
// per span name, with call count, total and mean time, sorted by total time
// descending — the "where did the run spend its time" view without leaving
// the terminal.
func (t *Tracer) FlameSummary(w io.Writer) {
	rows := map[string]*flameRow{}
	for _, ev := range t.Events() {
		r := rows[ev.Name]
		if r == nil {
			r = &flameRow{name: ev.Name}
			rows[ev.Name] = r
		}
		r.count++
		r.total += ev.Dur
	}
	sorted := make([]*flameRow, 0, len(rows))
	for _, r := range rows {
		sorted = append(sorted, r)
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].total != sorted[j].total {
			return sorted[i].total > sorted[j].total
		}
		return sorted[i].name < sorted[j].name
	})
	fmt.Fprintf(w, "%12s %8s %12s  %s\n", "total(ms)", "count", "mean(us)", "span")
	for _, r := range sorted {
		fmt.Fprintf(w, "%12.3f %8d %12.1f  %s\n",
			float64(r.total)/1e6, r.count, float64(r.total)/1e3/float64(r.count), r.name)
	}
	if d := t.Dropped(); d > 0 {
		fmt.Fprintf(w, "(%d spans dropped at the %d-event buffer cap)\n", d, maxEvents)
	}
}
