package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"tecopt/internal/obs"
)

// TestMapTasksCtxFlightHierarchy drives the pool with a trace
// recorded from many workers (run it under -race): nested spans and
// events from every task must link back to recorded parents, task
// spans must land on worker tracks 1..W, and the Perfetto export must
// be valid JSON with one named thread row per track.
func TestMapTasksCtxFlightHierarchy(t *testing.T) {
	const workers, tasks = 8, 64
	r := obs.New(&obs.ManualClock{})
	r.EnableTraceOpts(obs.TraceOptions{})
	prev := obs.SetGlobal(r)
	defer obs.SetGlobal(prev)

	err := Pool{Workers: workers}.MapTasksCtx(context.Background(), tasks,
		func(tctx context.Context, i int) error {
			ictx, inner := r.StartSpanCtx(tctx, "task.inner")
			inner.AnnotateInt("i", int64(i))
			r.EventCtx(ictx, "task.note", float64(i))
			_, leaf := r.StartSpanCtx(ictx, "task.leaf")
			leaf.End()
			inner.End()
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}

	var buf strings.Builder
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]string{} // span id -> name
	type rec struct {
		ev   obs.TraceEvent
		line string
	}
	var records []rec
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev obs.TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad trace line: %v\n%s", err, line)
		}
		records = append(records, rec{ev, line})
		if ev.Kind == "span" {
			if ev.ID == 0 {
				t.Fatalf("span without ID: %s", line)
			}
			ids[ev.ID] = ev.Name
		}
	}

	counts := map[string]int{}
	for _, rc := range records {
		ev := rc.ev
		counts[ev.Name]++
		// Every parent link must resolve to a recorded span.
		if ev.Parent != 0 {
			if _, ok := ids[ev.Parent]; !ok {
				t.Errorf("%s: parent %d not recorded", rc.line, ev.Parent)
			}
		}
		switch ev.Name {
		case "engine.pool.task":
			if ev.Track < 1 || ev.Track > workers {
				t.Errorf("task span on track %d, want 1..%d", ev.Track, workers)
			}
			if ids[ev.Parent] != "engine.pool.map" {
				t.Errorf("task span parent = %q, want engine.pool.map", ids[ev.Parent])
			}
		case "task.inner":
			if ids[ev.Parent] != "engine.pool.task" {
				t.Errorf("inner span parent = %q, want engine.pool.task", ids[ev.Parent])
			}
		case "task.leaf":
			if ids[ev.Parent] != "task.inner" {
				t.Errorf("leaf span parent = %q, want task.inner", ids[ev.Parent])
			}
		case "task.note":
			if ids[ev.Parent] != "task.inner" {
				t.Errorf("note event parent = %q, want task.inner", ids[ev.Parent])
			}
		}
	}
	for _, name := range []string{"engine.pool.task", "task.inner", "task.leaf", "task.note"} {
		if counts[name] != tasks {
			t.Errorf("%s count = %d, want %d", name, counts[name], tasks)
		}
	}
	if counts["engine.pool.map"] != 1 {
		t.Errorf("map span count = %d, want 1", counts["engine.pool.map"])
	}

	// Perfetto export: valid JSON, one named thread row per track.
	var pbuf strings.Builder
	if err := r.WriteTracePerfetto(&pbuf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TID   int64          `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(pbuf.String()), &doc); err != nil {
		t.Fatalf("perfetto export not valid JSON: %v", err)
	}
	threadNames := map[int64]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "M" && ev.Name == "thread_name" {
			if _, dup := threadNames[ev.TID]; dup {
				t.Errorf("duplicate thread_name for tid %d", ev.TID)
			}
			threadNames[ev.TID], _ = ev.Args["name"].(string)
		}
	}
	if threadNames[0] != "main" {
		t.Errorf("tid 0 = %q, want main", threadNames[0])
	}
	// Worker tracks appear only if a worker claimed at least one task;
	// with 64 tasks across 8 workers every observed track must be named.
	tracks := map[int64]bool{}
	for _, rc := range records {
		tracks[rc.ev.Track] = true
	}
	for tr := range tracks {
		want := "main"
		if tr != 0 {
			want = fmt.Sprintf("worker %02d", tr)
		}
		if threadNames[tr] != want {
			t.Errorf("track %d thread name = %q, want %q", tr, threadNames[tr], want)
		}
	}
}

// TestMapTasksCtxSerialInheritsTrack checks the serial path records
// tasks on the caller's track instead of minting worker lanes.
func TestMapTasksCtxSerialInheritsTrack(t *testing.T) {
	r := obs.New(&obs.ManualClock{})
	r.EnableTraceOpts(obs.TraceOptions{})
	prev := obs.SetGlobal(r)
	defer obs.SetGlobal(prev)

	ctx := obs.ContextWithTrack(context.Background(), 7)
	err := Serial.MapTasksCtx(ctx, 3, func(tctx context.Context, i int) error {
		if got := obs.TrackFromContext(tctx); got != 7 {
			t.Errorf("serial task track = %d, want 7", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := r.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev obs.TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Track != 7 {
			t.Errorf("serial %s span on track %d, want 7", ev.Name, ev.Track)
		}
	}
}
