package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"tufast"
)

// jsonDecodeBatch is the endpoint's decoder before the fixed-shape
// parser existed, and still its definition: one value off the body
// through encoding/json.
func jsonDecodeBatch(body []byte) ([]tufast.StreamOp, error) {
	var batch edgeBatch
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&batch); err != nil {
		return nil, err
	}
	var ops []tufast.StreamOp
	for _, op := range batch.Ops {
		ops = append(ops, tufast.StreamOp{Time: op.Time, U: op.U, V: op.V, Del: op.Del})
	}
	return ops, nil
}

// formerAnswer is what handleEdges answered to body before this decoder:
// the refusal its checks produced, in their order, or — for a batch they
// let through — status 0 and the ops it went on to apply.
func formerAnswer(body []byte, maxBatch int, n uint32) (ops []tufast.StreamOp, status int, msg string) {
	ops, err := jsonDecodeBatch(body)
	switch {
	case err != nil:
		return nil, http.StatusBadRequest, "bad batch: " + err.Error()
	case len(ops) == 0:
		return nil, http.StatusBadRequest, "empty batch"
	case len(ops) > maxBatch:
		return nil, http.StatusRequestEntityTooLarge, fmt.Sprintf("batch of %d ops exceeds max %d", len(ops), maxBatch)
	}
	for i, op := range ops {
		if op.U >= n || op.V >= n {
			return nil, http.StatusBadRequest, fmt.Sprintf("op %d: vertex out of range [0,%d)", i, n)
		}
	}
	return ops, 0, ""
}

// canonicalBody renders ops the way every client of this repo does.
func canonicalBody(ops []tufast.StreamOp) []byte {
	b := []byte(`{"ops":[`)
	for i, op := range ops {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"u":%d,"v":%d`, op.U, op.V)
		if op.Del {
			b = append(b, `,"del":true`...)
		}
		if op.Time != 0 {
			b = fmt.Appendf(b, `,"time":%d`, op.Time)
		}
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// answer runs body through g's handleEdges and returns status and body.
func answer(g *graphInstance, body []byte) (int, string) {
	rec := httptest.NewRecorder()
	g.handleEdges(rec, httptest.NewRequest(http.MethodPost, "/v1/edges", bytes.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// decodeSeeds is FuzzDecodeBatch's seed corpus: the canonical shape and
// every way of leaving it the parser must notice.
var decodeSeeds = []struct {
	body string
	fast bool // the fixed-shape parser takes it
}{
	{`{"ops":[{"u":1,"v":2},{"u":3,"v":4,"del":true}]}`, true},                           // canonical
	{`{"ops":[{"del":true,"time":7,"v":2,"u":1}]}`, true},                                // reordered keys
	{" {\n\t\"ops\" : [ { \"u\" : 1 , \"v\" : 2 } ,\r\n {\"u\":5,\"v\":6} ] } \n", true}, // whitespace
	{`{"ops":[{"u":1,"v":2,"del":false}]}`, true},                                        // "del":false
	{`{"ops":[{"u":1,"v":2,"time":18446744073709551615}]}`, true},                        // time at its maximum
	{`{"ops":[{"u":1,"v":2,"time":18446744073709551616}]}`, false},                       // and past it
	{`{"ops":[{"u":1,"v":2,"time":3},{"u":1,"v":2,"time":3}]}`, true},                    // duplicate ops
	{`{"ops":[{"u":1,"u":3,"v":2}]}`, false},                                             // duplicate key
	{`{"ops":[{"u":1,"v":2}],"ops":[{"u":5,"v":6}]}`, false},                             // duplicate "ops"
	{`{"ops":[{"u":1,"v":2,"w":9}]}`, false},                                             // unknown key
	{`{"ops":[{"U":1,"V":2,"DEL":true}]}`, false},                                        // keys encoding/json folds
	{`{"ops":[{"\u0075":1,"v":2}]}`, false},                                              // escaped key
	{`{"ops":[{"u":1e3,"v":2}]}`, false},                                                 // exponent
	{`{"ops":[{"u":1.0,"v":2}]}`, false},                                                 // fraction
	{`{"ops":[{"u":-1,"v":2}]}`, false},                                                  // sign
	{`{"ops":[{"u":01,"v":2}]}`, false},                                                  // leading zero
	{`{"ops":[{"u":4294967295,"v":0}]}`, true},                                           // uint32 maximum
	{`{"ops":[{"u":4294967296,"v":2}]}`, false},                                          // and past it
	{`{"ops":[{"u":null,"v":2,"del":null}]}`, false},                                     // null fields
	{`{"ops":null}`, false},
	{`null`, false},
	{`{"ops":[{"u":"1","v":2}]}`, false}, // string for a number
	{`{"ops":[{"u":1,"v":2,"del":1}]}`, false},
	{`{"ops":[{}]}`, true},
	{`{"ops":[]}`, true},
	{`{}`, false},
	{``, false},
	{`{"ops":[{"u":1,"v":2}`, false},             // truncated
	{`{"ops":[{"u":1,"v":2}]} trailing`, false},  // trailing garbage
	{`{"ops":[{"u":1,"v":2}]}{"ops":[]}`, false}, // a second value
	{`{"ops":[{"u":1,"v":2},]}`, false},
	{`{"ops":[{"u":1,"v":2,}]}`, false},
	{`{"ops":[{"u":1 "v":2}]}`, false},
	{`{"ops":[{"u":1,"v":2}],"x":1}`, false},
	{`[{"u":1,"v":2}]`, false},
	{`{"ops":[{"u":1,"v":2},{"u":3,"v":4},{"u":5,"v":6},{"u":7,"v":8},{"u":9,"v":10}]}`, true}, // MaxBatch+1
	{`{"ops":[{"u":1,"v":99}]}`, true},                                                         // out of range
	{"\ufeff" + `{"ops":[{"u":1,"v":2}]}`, false},                                              // byte-order mark
	{`{"ops":[{"u":1,"v":2,"del":truex}]}`, false},                                             // literal with a tail
	{`{"ops":[{"u":12abc,"v":2}]}`, false},                                                     // number with a tail
	{`{"ops":[{"u":1,"v":2,"time":00}]}`, false},                                               // two zeros
	{`{"ops":[{"u":1,"v":2,"del":true,"del":false}]}`, false},                                  // duplicate del
	{`{"ops":[{"u":1,"v":2,"time":1,"time":2}]}`, false},                                       // duplicate time
	{strings.Repeat(" ", 64) + `{"ops":[{"u":1,"v":2}]}`, true},                                // leading whitespace
}

// FuzzDecodeBatch holds the fixed-shape parser to encoding/json and the
// handler to its former self. Whenever the parser accepts a body,
// encoding/json accepts it with identical ops. And whatever the body,
// the handler answers it exactly as it did when encoding/json decoded
// every request — same status, same bytes — which for the bodies the
// parser declines means the fallback reproduces the old path, error
// texts included. Two identical servers are driven in lockstep: one is
// given the body, the other the former checks' verdict (or, for a batch
// they pass, its ops in canonical form).
func FuzzDecodeBatch(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s.body))
	}
	const n, maxBatch = 64, 4
	g, err := tufast.BuildGraph(n, nil, true)
	if err != nil {
		f.Fatal(err)
	}
	mk := func() *graphInstance {
		sys := tufast.NewSystem(g, tufast.Options{Threads: 2, SpaceWords: tufast.DynSpaceWords(g, 1<<14)})
		return New(tufast.NewDynGraph(sys), Config{MaxBatch: maxBatch, GCInterval: -1}).def
	}
	subject, twin := mk(), mk()
	f.Fuzz(func(t *testing.T, body []byte) {
		if int64(len(body)) > maxBodyBytes(maxBatch) {
			t.Skip("over the body limit: refused unread, by design (TestEdgesBodyLimit)")
		}
		if sp := subject.sys.Space(); sp.Used() > sp.Cap()/2 {
			subject, twin = mk(), mk() // a long fuzzing run fills any arena
		}
		want, err := jsonDecodeBatch(body)
		if got, ok := parseBatch(body, nil); ok {
			if err != nil {
				t.Fatalf("the parser accepts %q, encoding/json refuses it: %v", body, err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("the parser reads %q as %+v, encoding/json as %+v", body, got, want)
			}
		}
		if got, gerr := decodeBatch(body, nil); (gerr == nil) != (err == nil) || (err != nil && gerr.Error() != err.Error()) || !slices.Equal(got, want) {
			t.Fatalf("decodeBatch(%q) = %+v, %v; encoding/json gives %+v, %v", body, got, gerr, want, err)
		}

		ops, status, msg := formerAnswer(body, maxBatch, n)
		var wantStatus int
		var wantBody string
		if status != 0 {
			rec := httptest.NewRecorder()
			writeError(rec, status, msg)
			wantStatus, wantBody = rec.Code, rec.Body.String()
		} else {
			wantStatus, wantBody = answer(twin, canonicalBody(ops))
		}
		if gotStatus, gotBody := answer(subject, body); gotStatus != wantStatus || gotBody != wantBody {
			t.Fatalf("%q is answered %d %q, formerly %d %q", body, gotStatus, gotBody, wantStatus, wantBody)
		}
	})
}

// TestParseBatchCoversTheClients pins which seeds take the fast path: a
// parser that declined everything would pass the fuzz target too.
func TestParseBatchCoversTheClients(t *testing.T) {
	for _, s := range decodeSeeds {
		if _, ok := parseBatch([]byte(s.body), nil); ok != s.fast {
			t.Errorf("the parser takes %q = %v, want %v", s.body, ok, s.fast)
		}
	}
	ops := make([]tufast.StreamOp, 256)
	for i := range ops {
		ops[i] = tufast.StreamOp{U: uint32(i * 7919), V: ^uint32(i), Del: i%3 == 0, Time: uint64(i) << 40}
	}
	got, ok := parseBatch(canonicalBody(ops), nil)
	if !ok || !slices.Equal(got, ops) {
		t.Errorf("a canonical 256-op body does not round-trip through the parser (accepted %v)", ok)
	}
}

// TestEdgesBodyLimit: a body is refused by its size before it is
// decoded — unread when the request declares its length, cut off at the
// limit when it does not — whichever decoder it was headed for, and a
// batch of too many ops that fits the limit is still refused by count.
func TestEdgesBodyLimit(t *testing.T) {
	const maxBatch = 4
	s := startServer(t, newTestDyn(t, 64, 4), Config{MaxBatch: maxBatch})
	url := "http://" + s.Addr() + "/v1/edges"
	limit := int(maxBodyBytes(maxBatch))

	canonical := `{"ops":[{"u":1,"v":2},{"u":3,"v":4,"del":true}]}`
	fallback := `{"ops":[{"u":1,"v":2,"note":"not a field"},{"u":3,"v":4,"del":true}]}`
	pad := func(body string, size int) string { return body + strings.Repeat(" ", size-len(body)) }
	tooMany := func(extra string) string {
		var ops []string
		for i := 0; i <= maxBatch; i++ {
			ops = append(ops, fmt.Sprintf(`{"u":%d,"v":%d%s}`, i, i+10, extra))
		}
		return `{"ops":[` + strings.Join(ops, ",") + `]}`
	}
	bySize := fmt.Sprintf("batch body exceeds max %d bytes for %d ops", limit, maxBatch)
	byCount := fmt.Sprintf("batch of %d ops exceeds max %d", maxBatch+1, maxBatch)

	for _, c := range []struct {
		name    string
		body    string
		fast    bool // a body the fixed-shape parser takes
		chunked bool // send without a declared length
		status  int
		msg     string
	}{
		{"canonical at the limit", pad(canonical, limit), true, false, http.StatusOK, ""},
		{"canonical one byte over", pad(canonical, limit+1), true, false, http.StatusRequestEntityTooLarge, bySize},
		{"canonical one byte over, length undeclared", pad(canonical, limit+1), true, true, http.StatusRequestEntityTooLarge, bySize},
		{"fallback at the limit", pad(fallback, limit), false, true, http.StatusOK, ""},
		{"fallback one byte over", pad(fallback, limit+1), false, false, http.StatusRequestEntityTooLarge, bySize},
		{"fallback one byte over, length undeclared", pad(fallback, limit+1), false, true, http.StatusRequestEntityTooLarge, bySize},
		{"canonical, one op too many", tooMany(""), true, false, http.StatusRequestEntityTooLarge, byCount},
		{"fallback, one op too many", tooMany(`,"note":0`), false, false, http.StatusRequestEntityTooLarge, byCount},
		{"an array without end", `{"ops":[` + strings.Repeat(`{"u":1,"v":2},`, limit), false, true, http.StatusRequestEntityTooLarge, bySize},
	} {
		if _, fast := parseBatch([]byte(c.body), nil); fast != c.fast {
			t.Errorf("%s: taken by the fixed-shape parser = %v", c.name, fast)
		}
		var rd io.Reader = strings.NewReader(c.body)
		if c.chunked {
			rd = io.MultiReader(rd) // hides the length: the client sends it chunked
		}
		resp, err := http.Post(url, "application/json", rd)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var out struct{ Error string }
		_ = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != c.status || out.Error != c.msg {
			t.Errorf("%s: answered %d %q, want %d %q", c.name, resp.StatusCode, out.Error, c.status, c.msg)
		}
	}
}
