package serve

import (
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/fleet"
	"dvfsroofline/internal/tegra"
)

// membershipBody is the part of /readyz, /v1/stats and /v1/fleet/devices
// that describes fleet membership. Active is absent (zero) outside
// /readyz.
type membershipBody struct {
	Epoch   uint64         `json:"epoch"`
	Active  int            `json:"active"`
	States  map[string]int `json:"states"`
	Devices []struct {
		DeviceID string `json:"device_id"`
		State    string `json:"state"`
	} `json:"devices"`
}

// TestReadBodiesShowOneEpoch cycles one device through quarantine and
// back and adds and evicts another while readers poll the membership
// bodies. A single writer records the membership each epoch published;
// every body must then describe exactly the membership of the epoch it
// names — epoch, state counts and rows all from one registry view.
func TestReadBodiesShowOneEpoch(t *testing.T) {
	s := testFleet(t, 3, Options{})
	h := s.Handler()
	grids := node0(s).Grids

	// history maps each epoch to its members' states (device -> state).
	history := map[uint64]map[string]string{}
	model := map[string]string{"node-a": "active", "node-b": "active", "node-c": "active"}
	history[s.snapshot().epoch] = maps.Clone(model)
	apply := func(err error, id, state string) {
		if err != nil {
			t.Fatal(err)
		}
		if state == "" {
			delete(model, id)
		} else {
			model[id] = state
		}
		history[s.snapshot().epoch] = maps.Clone(model)
	}

	done := make(chan struct{})
	var bodies []membershipBody
	var bodiesMu sync.Mutex
	var readers sync.WaitGroup
	for _, path := range []string{"/readyz", "/v1/stats", "/v1/fleet/devices"} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				w := getPath(t, h, path)
				var b membershipBody
				if err := json.Unmarshal(w.Body.Bytes(), &b); err != nil {
					t.Errorf("%s: %v", path, err)
					return
				}
				bodiesMu.Lock()
				bodies = append(bodies, b)
				bodiesMu.Unlock()
			}
		}()
	}

	for i := 0; i < 150; i++ {
		apply(s.reg.SetState("node-a", fleet.StateQuarantined), "node-a", "quarantined")
		apply(s.reg.SetState("node-a", fleet.StateProbing), "node-a", "probing")
		apply(s.reg.SetState("node-a", fleet.StateActive), "node-a", "active")
		extra := fleet.NewNode("node-x", tegra.NewDevice(), node0(s).Cal(), experiments.Config{Seed: 7}, grids, fleet.NodeOptions{})
		apply(s.reg.Add(extra, fleet.StateActive), "node-x", "active")
		apply(s.reg.Evict("node-x"), "node-x", "")
	}
	close(done)
	readers.Wait()

	bad := 0
	for _, b := range bodies {
		want, ok := history[b.Epoch]
		if !ok {
			t.Fatalf("body names epoch %d, which no mutation published", b.Epoch)
		}
		rows := make(map[string]string, len(b.Devices))
		tally := make(map[string]int)
		for _, d := range b.Devices {
			rows[d.DeviceID] = d.State
			tally[d.State]++
		}
		total := 0
		for _, n := range b.States {
			total += n
		}
		switch {
		case b.Active != 0 && b.Active != b.States["active"],
			total != len(b.Devices),
			!maps.Equal(tally, b.States),
			!maps.Equal(rows, want):
			if bad < 3 {
				t.Errorf("epoch %d body mixes views: active %d, states %v, rows %v; epoch published %v",
					b.Epoch, b.Active, b.States, rows, want)
			}
			bad++
		}
	}
	if bad > 0 {
		t.Errorf("%d of %d bodies mixed two registry views", bad, len(bodies))
	}
}

// blockingWriter is a ResponseWriter whose Write stalls until released,
// like a scraper that stopped reading its socket.
type blockingWriter struct {
	header  http.Header
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *blockingWriter) Header() http.Header { return w.header }
func (w *blockingWriter) WriteHeader(int)     {}
func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestStalledScrapeDoesNotBlockRequests: a /metrics response stuck in
// Write must not hold the metrics lock that every instrumented request
// takes, or one slow scraper stalls the whole daemon.
func TestStalledScrapeDoesNotBlockRequests(t *testing.T) {
	h := newTestServer(t).Handler()
	bw := &blockingWriter{header: http.Header{}, entered: make(chan struct{}), release: make(chan struct{})}
	scraped := make(chan struct{})
	go func() {
		h.ServeHTTP(bw, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		close(scraped)
	}()
	<-bw.entered

	done := make(chan int, 1)
	go func() {
		done <- postJSON(t, h, "/v1/predict", `{"profile": {"sp": 1e9}, "setting_id": "max", "time_s": 0.1}`).Code
	}()
	select {
	case code := <-done:
		if code != http.StatusOK {
			t.Errorf("predict during a stalled scrape = %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Error("predict blocked behind a stalled /metrics write")
		defer func() { <-done }()
	}
	close(bw.release)
	<-scraped
}
