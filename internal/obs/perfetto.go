package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteTracePerfetto serializes the recorded trace in Chrome
// trace-event JSON (the format ui.perfetto.dev and chrome://tracing
// load directly): spans become "X" complete events, point events
// become "i" instants, and each track gets a named
// thread row ("main", "worker 01", ...). Timestamps are microseconds
// with three decimals, preserving exact nanosecond precision from the
// registry clock. It is a no-op on a nil registry or when tracing was
// never enabled.
func (r *Registry) WriteTracePerfetto(w io.Writer) error {
	if !r.Tracing() {
		return nil
	}
	events, dropped := r.traceSnapshot()

	// Collect the track set. Track 0 (the main goroutine) is always
	// present so the trace has at least one named row.
	trackSet := map[int64]bool{0: true}
	for _, ev := range events {
		trackSet[ev.Track] = true
	}
	tracks := make([]int64, 0, len(trackSet))
	for t := range trackSet {
		tracks = append(tracks, t)
	}
	sort.Slice(tracks, func(i, j int) bool { return tracks[i] < tracks[j] })

	bw := &errWriter{w: w}
	bw.writeString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	first := true
	emit := func(line []byte) {
		if !first {
			bw.writeString(",\n")
		}
		first = false
		bw.write(line)
	}

	for _, t := range tracks {
		name := "main"
		if t != 0 {
			name = fmt.Sprintf("worker %02d", t)
		}
		line, err := json.Marshal(chromeMeta{
			Name: "thread_name", Phase: "M", PID: 1, TID: t,
			Args: map[string]string{"name": name},
		})
		if err != nil {
			return err
		}
		emit(line)
	}

	for _, ev := range events {
		line, err := chromeLine(ev)
		if err != nil {
			return err
		}
		emit(line)
	}

	if dropped > 0 {
		line, err := json.Marshal(chromeEvent{
			Name: "trace.dropped", Phase: "i", PID: 1, TID: 0,
			TS: json.RawMessage("0"), Scope: "t",
			Args: map[string]any{"dropped": dropped},
		})
		if err != nil {
			return err
		}
		emit(line)
	}

	bw.writeString("\n]}\n")
	return bw.err
}

// chromeMeta is a trace-event metadata record (thread naming).
type chromeMeta struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	PID   int               `json:"pid"`
	TID   int64             `json:"tid"`
	Args  map[string]string `json:"args"`
}

// chromeEvent is one trace-event record. TS and Dur are microseconds;
// they are pre-formatted strings so nanosecond precision survives
// (json.RawMessage keeps them numeric in the output).
type chromeEvent struct {
	Name  string          `json:"name"`
	Phase string          `json:"ph"`
	PID   int             `json:"pid"`
	TID   int64           `json:"tid"`
	TS    json.RawMessage `json:"ts"`
	Dur   json.RawMessage `json:"dur,omitempty"`
	Scope string          `json:"s,omitempty"`
	Args  map[string]any  `json:"args,omitempty"`
}

// usec renders ns as microseconds with exactly three decimals, so
// every distinct nanosecond maps to a distinct (and exact) value.
func usec(ns int64) json.RawMessage {
	return json.RawMessage(strconv.FormatFloat(float64(ns)/1e3, 'f', 3, 64))
}

// chromeLine converts one TraceEvent into its Chrome trace-event JSON.
func chromeLine(ev TraceEvent) ([]byte, error) {
	args := map[string]any{}
	if ev.ID != 0 {
		args["id"] = ev.ID
	}
	if ev.Parent != 0 {
		args["parent"] = ev.Parent
	}
	for _, a := range ev.Attrs {
		args[a.Key] = a.Value
	}
	ce := chromeEvent{Name: ev.Name, PID: 1, TID: ev.Track, TS: usec(ev.StartNS)}
	switch ev.Kind {
	case "span":
		ce.Phase = "X"
		ce.Dur = usec(ev.DurNS)
	default:
		ce.Phase = "i"
		ce.Scope = "t"
		args["value"] = ev.Value
	}
	if len(args) > 0 {
		ce.Args = args
	}
	return json.Marshal(ce)
}

// errWriter latches the first write error so the export loop stays
// linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (b *errWriter) write(p []byte) {
	if b.err != nil {
		return
	}
	_, b.err = b.w.Write(p)
}

func (b *errWriter) writeString(s string) { b.write([]byte(s)) }
