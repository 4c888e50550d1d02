package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// fetch GETs url and returns the status code and body.
func fetch(t *testing.T, url string) (int, string) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// get GETs url and fails the test unless it answers 200.
func get(t *testing.T, url string) string {
	t.Helper()
	code, body := fetch(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d body %q", url, code, body)
	}
	return body
}

// TestDebugServerRoutes pins the debug surface: /metrics is the registry
// and nothing else, and the index lists only the routes that exist.
func TestDebugServerRoutes(t *testing.T) {
	reg := &Registry{}
	reg.Add("steps", 7)
	s, err := StartDebugServer(DebugOptions{Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	metrics := get(t, s.URL+"/metrics")
	if !strings.Contains(metrics, "rtrbench_steps 7") {
		t.Fatalf("/metrics lacks the live counter:\n%s", metrics)
	}
	if strings.Contains(metrics, "ledger") {
		t.Fatalf("/metrics carries more than the registry:\n%s", metrics)
	}
	index := get(t, s.URL+"/")
	if !strings.Contains(index, "/metrics") || strings.Contains(index, "/ledger") {
		t.Fatalf("index should list /metrics and not /ledger:\n%s", index)
	}
	if code, _ := fetch(t, s.URL+"/ledger"); code != http.StatusNotFound {
		t.Fatalf("GET /ledger = %d, want 404", code)
	}
}
