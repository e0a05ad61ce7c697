package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"

	"tecopt/internal/obs"
	"tecopt/internal/tecerr"
)

// traceData is the normalized in-memory form of a recording: the event
// list in recorded order plus the truncation count, independent of
// which exporter wrote the file.
type traceData struct {
	events  []obs.TraceEvent
	dropped uint64
}

// parseTrace sniffs the file format and decodes it. JSONL files carry
// one TraceEvent object per line; Perfetto files are a single Chrome
// trace-event document whose first line contains the "traceEvents"
// key (span/event names never do, so the sniff cannot misfire).
func parseTrace(data []byte) (*traceData, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, tecerr.New(tecerr.CodeInvalidInput, "tectrace", "empty trace file")
	}
	head := trimmed
	if i := bytes.IndexByte(head, '\n'); i >= 0 {
		head = head[:i]
	}
	if bytes.Contains(head, []byte(`"traceEvents"`)) {
		return parsePerfetto(trimmed)
	}
	return parseJSONL(trimmed)
}

// parseJSONL decodes the JSON-lines exporter output. The
// final {"kind":"dropped",...} marker, when present, becomes the
// dropped count instead of an event.
func parseJSONL(data []byte) (*traceData, error) {
	td := &traceData{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var rec struct {
			obs.TraceEvent
			Dropped uint64 `json:"dropped"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, tecerr.Wrapf(tecerr.CodeInvalidInput, "tectrace", err,
				"bad JSONL record on line %d", lineNo)
		}
		if rec.Kind == "dropped" {
			td.dropped = rec.Dropped
			continue
		}
		sortAttrs(rec.Attrs)
		td.events = append(td.events, rec.TraceEvent)
	}
	if err := sc.Err(); err != nil {
		return nil, tecerr.Wrap(tecerr.CodeInvalidInput, "tectrace", "reading JSONL", err)
	}
	return td, nil
}

// perfettoEvent mirrors the subset of the Chrome trace-event record the
// exporter emits. Timestamps are microseconds (three decimals, exact).
type perfettoEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TID   int64          `json:"tid"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur"`
	Args  map[string]any `json:"args"`
}

// parsePerfetto decodes a Chrome trace-event document back into the
// normalized event list: "X" records become spans, "i" records become
// events, "M" metadata and the trace.dropped marker are consumed.
func parsePerfetto(data []byte) (*traceData, error) {
	var doc struct {
		TraceEvents []perfettoEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, tecerr.Wrap(tecerr.CodeInvalidInput, "tectrace", "bad Perfetto document", err)
	}
	td := &traceData{}
	for _, pe := range doc.TraceEvents {
		switch pe.Phase {
		case "M":
			continue
		case "i":
			if pe.Name == "trace.dropped" {
				td.dropped = uint64(argFloat(pe.Args, "dropped"))
				continue
			}
		}
		ev := obs.TraceEvent{
			Name:    pe.Name,
			StartNS: usToNS(pe.TS),
			Track:   pe.TID,
			ID:      uint64(argFloat(pe.Args, "id")),
			Parent:  uint64(argFloat(pe.Args, "parent")),
		}
		if pe.Phase == "X" {
			ev.Kind = "span"
			ev.DurNS = usToNS(pe.Dur)
		} else {
			ev.Kind = "event"
			ev.Value = argFloat(pe.Args, "value")
		}
		for k, v := range pe.Args {
			switch k {
			case "id", "parent", "value":
				continue
			}
			if s, ok := v.(string); ok {
				ev.Attrs = append(ev.Attrs, obs.Attr{Key: k, Value: s})
			}
		}
		sortAttrs(ev.Attrs)
		td.events = append(td.events, ev)
	}
	return td, nil
}

// usToNS converts the exporter's microsecond timestamps (exact to three
// decimals) back to integer nanoseconds.
func usToNS(us float64) int64 { return int64(math.Round(us * 1e3)) }

// argFloat reads a numeric arg (JSON numbers decode as float64).
func argFloat(args map[string]any, key string) float64 {
	f, _ := args[key].(float64)
	return f
}

// sortAttrs orders attributes by key. Perfetto args decode from a map
// (randomized iteration), JSONL keeps insertion order; a canonical
// order makes the report identical no matter which exporter wrote the
// file. The analyzer only reads attrs by key, so nothing is lost.
func sortAttrs(attrs []obs.Attr) {
	for i := 1; i < len(attrs); i++ {
		for j := i; j > 0 && attrs[j].Key < attrs[j-1].Key; j-- {
			attrs[j], attrs[j-1] = attrs[j-1], attrs[j]
		}
	}
}
