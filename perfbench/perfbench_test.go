package main

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHistRelativeError(t *testing.T) {
	for _, v := range []int64{0, 1, 127, 128, 129, 1000, 4095, 65537, 1 << 30, 123456789} {
		var h hist
		h.record(v)
		got := h.quantile(0.5)
		if err := math.Abs(got-float64(v)) / math.Max(float64(v), 1); err > 0.01 {
			t.Errorf("value %d reads back as %.1f (error %.4f)", v, got, err)
		}
	}
	var h hist
	for v := int64(1); v <= 1000; v++ {
		h.record(v * 1000)
	}
	if p50, p99 := h.quantile(0.5), h.quantile(0.99); math.Abs(p50-500e3)/500e3 > 0.01 || math.Abs(p99-990e3)/990e3 > 0.01 {
		t.Errorf("p50 %.0f p99 %.0f, want 500000 and 990000 within 1%%", p50, p99)
	}
}

// TestHTTPConn drives the client against a server that answers like
// lcds-server and checks every parsed answer.
func TestHTTPConn(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		switch r.URL.Path {
		case "/contains":
			w.Write([]byte(`{"key":` + r.URL.Query().Get("key") + `,"member":true}` + "\n"))
		case "/batch":
			w.Write([]byte(`{"members":[true,false,true]}` + "\n"))
		case "/delete":
			w.Write([]byte(`{"deleted":false,"key":5}` + "\n"))
		default:
			http.Error(w, "no", http.StatusBadRequest)
		}
	}))
	defer srv.Close()
	h, err := dialHTTP(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer h.conn.Close()
	if got, err := h.contains(42); err != nil || !got {
		t.Errorf("contains = %v, %v; want true", got, err)
	}
	got := make([]bool, 3)
	if err := h.batch([]uint64{1, 2, 3}, got); err != nil || !got[0] || got[1] || !got[2] {
		t.Errorf("batch = %v, %v; want [true false true]", got, err)
	}
	if err := h.batch([]uint64{1, 2}, got[:2]); err != errParse {
		t.Errorf("batch with a short answer: err %v, want errParse", err)
	}
	if ch, err := h.write(5, true); err != nil || ch {
		t.Errorf("delete = %v, %v; want false", ch, err)
	}
	if _, err := h.write(5, false); err != errStatus {
		t.Errorf("insert answered 400: err %v, want errStatus", err)
	}
}

func TestSelfTest(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

// nopTarget answers instantly and allocates nothing, so any allocation
// measured around it is the client's.
type nopTarget struct{}

func (nopTarget) contains(uint64) (bool, error)      { return false, nil }
func (nopTarget) batch(_ []uint64, got []bool) error { return nil }
func (nopTarget) write(uint64, bool) (bool, error)   { return true, nil }

func TestClientLoopAllocatesNothing(t *testing.T) {
	ks := makeKeys(256, 3, 1, 64, 256)
	plan := []opKind{opRead, opWrite, opRead, opBatch}
	c := newClient(0, nopTarget{}, ks, 3, plan, 20)
	c.recording = true
	if a := testing.AllocsPerRun(200, c.round); a != 0 {
		t.Errorf("untraced round allocates %.1f times", a)
	}
	c.spans = newSpanBuf(time.Now(), 0, 1<<12)
	if a := testing.AllocsPerRun(200, c.round); a != 0 {
		t.Errorf("traced round allocates %.1f times", a)
	}
}

// batchErrTarget answers like nopTarget but fails every batch.
type batchErrTarget struct{ nopTarget }

func (batchErrTarget) batch([]uint64, []bool) error { return errStatus }

// A run in which one op kind fails every time must not report latencies
// or throughput for it: the window is refused.
func TestFailingOpKindFailsWindow(t *testing.T) {
	ks := makeKeys(256, 3, 1, 64, 256)
	c := newClient(0, batchErrTarget{}, ks, 3, []opKind{opRead, opBatch, opWrite}, 20)
	_, _, err := measure([]*client{c}, 60*time.Millisecond, func() (time.Duration, error) { return 0, nil })
	if err == nil || !strings.Contains(err.Error(), "no batch op succeeded") {
		t.Fatalf("measure = %v, want a refusal naming the batch op", err)
	}
	if c.lat[opBatch].n != 0 || c.ops+c.failed != c.attempted {
		t.Errorf("%d batches timed, %d completed + %d failed of %d attempted; want no batch timed and no failed op completed",
			c.lat[opBatch].n, c.ops, c.failed, c.attempted)
	}
}

func TestCompleteRefusesUnmeasured(t *testing.T) {
	want := map[string]string{"server.a": "us", "facade.b": "ns", "core.c": "ns"}
	res := &result{Metrics: map[string]metric{"core.c": {1, "ns"}}}
	if err := complete(res, want, []string{"server."}); err == nil || !strings.Contains(err.Error(), "facade.b") {
		t.Fatalf("complete = %v, want an error naming facade.b", err)
	}
	res.set("facade.b", "ns", 2)
	if err := complete(res, want, []string{"server."}); err != nil {
		t.Fatal(err)
	}
	if m := res.Metrics["server.a"]; m.Value != 0 || m.Unit != "us" {
		t.Errorf("unreached server.a = %+v, want 0 us", m)
	}
	res = &result{Metrics: map[string]metric{"bogus": {1, "s"}}}
	if err := complete(res, want, nil); err == nil {
		t.Error("complete accepted a metric outside the reported set")
	}
}

func TestQuietSlices(t *testing.T) {
	mk := func(steals ...float64) []sliceStat {
		out := make([]sliceStat, len(steals))
		for i, s := range steals {
			out[i].steal = s
		}
		return out
	}
	for _, c := range []struct {
		steals []float64
		want   int
	}{
		{[]float64{0, 0, 0, 0, 0, 0}, 6},
		{[]float64{0, 0.05, 0.01, 0.3, 0.02, 0}, 4},
		{[]float64{0.1, 0.05, 0.2, 0.3, 0.08, 0.4}, 3},
		{[]float64{0.1, 0.05, 0.2, 0.3, 0.08}, 3},
	} {
		got := quiet(mk(c.steals...))
		if len(got) != c.want {
			t.Errorf("quiet(%v) kept %d slices, want %d", c.steals, len(got), c.want)
		}
		for i := 1; i < len(got); i++ {
			if got[i].steal < got[i-1].steal {
				t.Errorf("quiet(%v) is not least-stolen first", c.steals)
			}
		}
	}
}
