package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, opts Options) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(opts)
	ts := httptest.NewServer(NewAPI(svc).Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	return svc, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, JobView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	data, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(data, &view)
	return resp, view
}

func getJob(t *testing.T, ts *httptest.Server, id string) (int, JobView) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var view JobView
	_ = json.NewDecoder(resp.Body).Decode(&view)
	return resp.StatusCode, view
}

func pollDone(t *testing.T, ts *httptest.Server, id string, timeout time.Duration) JobView {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, view := getJob(t, ts, id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		switch view.State {
		case StateDone:
			return view
		case StateFailed, StateCanceled:
			t.Fatalf("job %s reached %s: %s", id, view.State, view.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, view.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

const plantedBody = `{"graph":{"family":"planted","n1":16,"n2":16,"k":2,"in_p":0.5,"seed":4},"mode":"exact"}`

func TestHTTPSubmitPollFetch(t *testing.T) {
	_, ts := newTestServer(t, Options{PoolSize: 2})

	resp, view := postJob(t, ts, plantedBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if view.ID == "" || view.Key == "" {
		t.Fatalf("submit response incomplete: %+v", view)
	}

	final := pollDone(t, ts, view.ID, 2*time.Minute)
	var res Result
	if err := json.Unmarshal(final.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Value != 2 {
		t.Fatalf("cut %d, want planted 2", res.Value)
	}

	// Content-addressed fetch returns the identical bytes.
	rr, err := http.Get(ts.URL + "/v1/results/" + view.Key)
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("results status %d", rr.StatusCode)
	}
	if cc := rr.Header.Get("Cache-Control"); !strings.Contains(cc, "immutable") {
		t.Fatalf("results Cache-Control %q not immutable", cc)
	}
	raw, _ := io.ReadAll(rr.Body)
	if !bytes.Equal(bytes.TrimSpace(raw), []byte(final.Result)) {
		t.Fatal("result endpoint bytes differ from job result")
	}

	// Resubmission: served from cache with 200.
	resp2, view2 := postJob(t, ts, plantedBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached submit status %d, want 200", resp2.StatusCode)
	}
	if view2.State != StateDone || !view2.CacheHit {
		t.Fatalf("cached submit state %s hit %v", view2.State, view2.CacheHit)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{PoolSize: 1})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"not json", `{{{`, http.StatusBadRequest},
		{"unknown field", `{"graph":{"family":"cycle","n":8},"turbo":true}`, http.StatusBadRequest},
		{"unknown family", `{"graph":{"family":"moebius","n":8}}`, http.StatusBadRequest},
		{"bad epsilon", `{"graph":{"family":"cycle","n":8},"mode":"approx","epsilon":7}`, http.StatusBadRequest},
		{"oversized n", `{"graph":{"family":"complete","n":1000000}}`, http.StatusBadRequest},
		{"self loop", `{"graph":{"family":"edges","n":3,"edges":[[0,0,1]]}}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, _ := postJob(t, ts, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
	}
}

func TestHTTPOversizedUpload(t *testing.T) {
	svc := New(Options{PoolSize: 1})
	api := NewAPI(svc)
	api.MaxBody = 1024
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		_ = svc.Shutdown(ctx)
	})
	var sb strings.Builder
	sb.WriteString(`{"graph":{"family":"edges","n":4000,"edges":[`)
	for i := 0; i < 2000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "[%d,%d,1]", i, i+1)
	}
	sb.WriteString(`]}}`)
	resp, _ := postJob(t, ts, sb.String())
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestHTTPQueueFull(t *testing.T) {
	_, ts := newTestServer(t, Options{PoolSize: 1, QueueDepth: 1})
	// Occupy the worker and the 1-slot queue, then overflow. Retries
	// tolerate the worker popping between submissions.
	got503 := false
	for i := 0; i < 6 && !got503; i++ {
		body := fmt.Sprintf(`{"graph":{"family":"planted","n1":16,"n2":16,"k":2,"in_p":0.5,"seed":%d},"mode":"exact"}`, 40+i)
		resp, _ := postJob(t, ts, body)
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusServiceUnavailable:
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("503 without Retry-After")
			}
			got503 = true
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if !got503 {
		t.Fatal("queue never reported full")
	}
}

func TestHTTPCancel(t *testing.T) {
	_, ts := newTestServer(t, Options{PoolSize: 1})
	// The one worker's job (planted 128+128, a few hundred ms) must
	// outlast the DELETE, so the second job is still queued when it lands.
	_, slow := postJob(t, ts, `{"graph":{"family":"planted","n1":128,"n2":128,"k":3,"in_p":0.2,"seed":4},"mode":"exact"}`)
	_, queued := postJob(t, ts, `{"graph":{"family":"planted","n1":16,"n2":16,"k":2,"in_p":0.5,"seed":77},"mode":"exact"}`)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	_ = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || view.State != StateCanceled {
		t.Fatalf("cancel: status %d state %s", resp.StatusCode, view.State)
	}
	pollDone(t, ts, slow.ID, 2*time.Minute)
}

func TestHTTPNotFound(t *testing.T) {
	_, ts := newTestServer(t, Options{PoolSize: 1})
	if code, _ := getJob(t, ts, "j999"); code != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", code)
	}
	resp, err := http.Get(ts.URL + "/v1/results/" + strings.Repeat("ab", 32))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown result status %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j999", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown job status %d, want 404", dresp.StatusCode)
	}
}

func TestHTTPHealthAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{PoolSize: 2})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	_, view := postJob(t, ts, `{"graph":{"family":"cycle","n":64},"mode":"respect"}`)
	pollDone(t, ts, view.ID, 2*time.Minute)
	postJob(t, ts, `{"graph":{"family":"cycle","n":64},"mode":"respect"}`) // cache hit

	mresp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Submitted != 2 || m.Completed != 1 || m.CacheHits != 1 {
		t.Fatalf("metrics submitted/completed/hits = %d/%d/%d, want 2/1/1", m.Submitted, m.Completed, m.CacheHits)
	}
	if m.PoolSize != 2 || m.UptimeSec <= 0 {
		t.Fatalf("metrics shape: %+v", m)
	}
	if m.CacheHitRate != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", m.CacheHitRate)
	}

	// Default format is Prometheus text exposition: the same counters
	// under their mincutd_* names, typed and help-annotated.
	presp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if ct := presp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prometheus content type %q", ct)
	}
	body, err := io.ReadAll(presp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE mincutd_jobs_submitted_total counter",
		"mincutd_jobs_submitted_total 2",
		"mincutd_cache_hits_total 1",
		"mincutd_cache_hit_ratio 0.5",
		"# TYPE mincutd_queue_depth gauge",
		"mincutd_jobs_deadline_total 0",
		"mincutd_jobs_shed_total 0",
		"mincutd_admission_rejected_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus body missing %q:\n%s", want, text)
		}
	}
}
