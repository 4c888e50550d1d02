package obs

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"
)

func sampleReport() KernelReport {
	return KernelReport{
		Kernel:     "rrt",
		Stage:      "Planning",
		Index:      8,
		ROISeconds: 0.125,
		Dominant:   "collision",
		Phases: []PhaseReport{
			{Name: "collision", Seconds: 0.08, Calls: 4000, Fraction: 0.64},
			{Name: "nn", Seconds: 0.03, Calls: 4000, Fraction: 0.24},
		},
		Counters: map[string]int64{"seg_checks": 123},
		Metrics:  map[string]float64{"path_cost_rad": 3.5, "found": 1},
		Steps: &StepReport{
			Count: 4000, P50Seconds: 2e-5, P95Seconds: 6e-5,
			P99Seconds: 9e-5, MaxSeconds: 4e-4,
			DeadlineSeconds: 1e-4, DeadlineMisses: 7,
		},
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sampleReport()); err != nil {
		t.Fatal(err)
	}
	var back KernelReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if back.Schema != SchemaVersion {
		t.Fatalf("schema = %q", back.Schema)
	}
	if back.Kernel != "rrt" || back.Steps == nil || back.Steps.DeadlineMisses != 7 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if back.Phases[0].Name != "collision" || back.Metrics["path_cost_rad"] != 3.5 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestWriteJSONAll(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONAll(&buf, []KernelReport{sampleReport(), {Kernel: "pfl", Error: "boom"}}); err != nil {
		t.Fatal(err)
	}
	var back []KernelReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[1].Error != "boom" || back[1].Schema != SchemaVersion {
		t.Fatalf("sweep round trip: %+v", back)
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleReport()); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("emitted CSV does not parse: %v", err)
	}
	if len(rows) < 2 || rows[0][0] != "schema" {
		t.Fatalf("missing header: %v", rows)
	}
	kinds := map[string]int{}
	for _, r := range rows[1:] {
		if len(r) != len(csvHeader) {
			t.Fatalf("ragged row: %v", r)
		}
		kinds[r[2]]++
	}
	if kinds["roi"] != 1 || kinds["phase"] != 2 || kinds["counter"] != 1 || kinds["metric"] != 2 || kinds["step"] == 0 {
		t.Fatalf("record kinds = %v", kinds)
	}
}

func TestWriteTraceValidAndLoadable(t *testing.T) {
	events := []TraceEvent{
		{Name: "roi", Ph: "X", Ts: 0, Dur: 1000, Pid: TracePid, Tid: TraceTidPhases},
		{Name: "collision", Ph: "X", Ts: 10, Dur: 50, Pid: TracePid, Tid: TraceTidPhases},
		{Name: "deadline-miss", Ph: "i", Ts: 400, Pid: TracePid, Tid: TraceTidSteps, S: "t"},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, events, map[string]string{"kernel": "rrt"}); err != nil {
		t.Fatal(err)
	}
	// The trace_event importer requires a traceEvents array of objects with
	// name/ph/ts/pid/tid; verify the shape generically.
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("events = %d", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		for _, field := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := e[field]; !ok {
				t.Fatalf("event missing %q: %v", field, e)
			}
		}
	}
	// An empty trace is still a valid document.
	buf.Reset()
	if err := WriteTrace(&buf, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Fatalf("empty trace = %s", buf.String())
	}
}

func TestRegistryAndMetrics(t *testing.T) {
	reg := &Registry{}
	reg.Add("steps", 3)
	reg.Add("steps", 2)
	reg.Add("deadline misses", 1) // name needs sanitizing
	snap := reg.Snapshot()
	if snap["steps"] != 5 || snap["deadline misses"] != 1 {
		t.Fatalf("snapshot = %v", snap)
	}
	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "rtrbench_steps 5") || !strings.Contains(out, "rtrbench_deadline_misses 1") {
		t.Fatalf("metrics output:\n%s", out)
	}
	reg.Reset()
	if reg.Snapshot()["steps"] != 0 {
		t.Fatal("reset did not zero counters")
	}
}

func TestDebugServer(t *testing.T) {
	reg := &Registry{}
	reg.Add("runs", 1)
	s, err := StartDebugServer(DebugOptions{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	for path, want := range map[string]string{
		"/metrics":      "rtrbench_runs 1",
		"/debug/pprof/": "profiles",
		"/":             "rtrbench debug server",
	} {
		resp, err := client.Get(s.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(body.String(), want) {
			t.Fatalf("GET %s: status %d body %q", path, resp.StatusCode, body.String())
		}
	}
}

// TestWriteJSONSanitizesNonfiniteMetrics checks a chaos-corrupted metric
// (NaN/Inf) cannot make a report unwritable: encoding/json rejects
// non-finite numbers, so the writers drop them into nonfinite_metrics.
func TestWriteJSONSanitizesNonfiniteMetrics(t *testing.T) {
	r := KernelReport{
		Kernel: "pfl",
		Metrics: map[string]float64{
			"good":     1.5,
			"bad_nan":  math.NaN(),
			"bad_inf":  math.Inf(1),
			"bad_ninf": math.Inf(-1),
		},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatalf("WriteJSON with non-finite metrics: %v", err)
	}
	var back KernelReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Metrics) != 1 || back.Metrics["good"] != 1.5 {
		t.Errorf("Metrics = %v, want only good=1.5", back.Metrics)
	}
	want := []string{"bad_inf", "bad_nan", "bad_ninf"}
	if len(back.NonfiniteMetrics) != 3 {
		t.Fatalf("NonfiniteMetrics = %v, want %v", back.NonfiniteMetrics, want)
	}
	for i, name := range want {
		if back.NonfiniteMetrics[i] != name {
			t.Errorf("NonfiniteMetrics[%d] = %q, want %q", i, back.NonfiniteMetrics[i], name)
		}
	}
	// The caller's map must not be mutated by the write.
	if len(r.Metrics) != 4 {
		t.Errorf("caller's Metrics mutated: %v", r.Metrics)
	}
}

// TestWriteFaultAndDegraded checks chaos fields round-trip through JSON and
// surface as CSV rows.
func TestWriteFaultAndDegraded(t *testing.T) {
	r := KernelReport{
		Kernel:   "ekfslam",
		Degraded: true,
		Fault:    "injected panic at step 3",
		Trials: &TrialsReport{
			Trials:   2,
			Degraded: 1,
			Retried:  1,
			Faults: []FaultReport{
				{Trial: 0, Step: 5, Kind: "nan", Detail: "measurement -> NaN"},
				{Trial: 1, Step: 9, Kind: "stall", Detail: "1ms"},
			},
		},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	var back KernelReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !back.Degraded || back.Fault != r.Fault {
		t.Errorf("degraded/fault lost: %+v", back)
	}
	if back.Trials == nil || len(back.Trials.Faults) != 2 || back.Trials.Faults[1].Kind != "stall" {
		t.Errorf("trial faults lost: %+v", back.Trials)
	}
	if back.Trials.Degraded != 1 || back.Trials.Retried != 1 {
		t.Errorf("trial degraded/retried lost: %+v", back.Trials)
	}

	buf.Reset()
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"degraded", "fault_attribution", "fault,nan", "fault,stall"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}
