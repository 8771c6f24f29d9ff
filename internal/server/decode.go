package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"tufast"
)

// maxOpBytes is the longest canonical op on the wire, all four fields at
// their maxima and the separating comma included:
//
//	{"u":4294967295,"v":4294967295,"del":false,"time":18446744073709551615},
const maxOpBytes = 72

// maxBodyBytes bounds a POST …/edges body for a server whose batches hold
// at most maxBatch ops: twice the canonical maximum, which leaves every
// op its own length again in whitespace, plus the envelope. A body over
// it cannot be a batch the server would apply, so it is refused before
// it is read.
func maxBodyBytes(maxBatch int) int64 {
	return 2*maxOpBytes*int64(maxBatch) + 64
}

// edgeOp is one mutation of a POST …/edges batch, as encoding/json
// decodes it.
type edgeOp struct {
	U    uint32 `json:"u"`
	V    uint32 `json:"v"`
	Del  bool   `json:"del,omitempty"`
	Time uint64 `json:"time,omitempty"`
}

// edgeBatch is the POST …/edges body, as encoding/json decodes it.
type edgeBatch struct {
	Ops []edgeOp `json:"ops"`
}

// edgeScratch is what one handleEdges call decodes with: the body's
// bytes and the ops parsed out of them. Neither outlives the call — the
// apply, the WAL append and the standing hooks all copy what they keep —
// so both are pooled.
type edgeScratch struct {
	body bytes.Buffer
	ops  []tufast.StreamOp
}

// maxPooledBody keeps a rare giant request from pinning its buffers in
// the pool: scratch that grew past it is dropped for the collector.
const maxPooledBody = 1 << 20

var edgeScratchPool = sync.Pool{New: func() any { return new(edgeScratch) }}

func getEdgeScratch() *edgeScratch { return edgeScratchPool.Get().(*edgeScratch) }

func putEdgeScratch(sc *edgeScratch) {
	if sc.body.Cap() > maxPooledBody {
		return
	}
	sc.body.Reset()
	sc.ops = sc.ops[:0]
	edgeScratchPool.Put(sc)
}

// readBatch reads and decodes the request's batch into sc, enforcing
// the body and batch-size limits. A non-zero status is the refusal to
// answer with. The body limit is checked against the declared length
// first, so an oversized request is refused unread; a body of
// undeclared or understated length is cut off at the limit.
func (s *graphInstance) readBatch(w http.ResponseWriter, r *http.Request, sc *edgeScratch) (ops []tufast.StreamOp, status int, msg string) {
	limit := maxBodyBytes(s.cfg.MaxBatch)
	tooLarge := r.ContentLength > limit
	if !tooLarge {
		if r.ContentLength > 0 {
			sc.body.Grow(int(r.ContentLength) + bytes.MinRead)
		}
		if _, err := sc.body.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
			var cut *http.MaxBytesError
			if !errors.As(err, &cut) {
				return nil, http.StatusBadRequest, "bad batch: " + err.Error()
			}
			tooLarge = true
		}
	}
	if tooLarge {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch body exceeds max %d bytes for %d ops", limit, s.cfg.MaxBatch)
	}
	ops, err := decodeBatch(sc.body.Bytes(), sc.ops[:0])
	sc.ops = ops[:0] // keep what the decode grew
	if err != nil {
		return nil, http.StatusBadRequest, "bad batch: " + err.Error()
	}
	if len(ops) == 0 {
		return nil, http.StatusBadRequest, "empty batch"
	}
	if len(ops) > s.cfg.MaxBatch {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d ops exceeds max %d", len(ops), s.cfg.MaxBatch)
	}
	return ops, 0, ""
}

// decodeBatch decodes a POST …/edges body, appending its ops to ops. A
// body of the shape every client sends is parsed in place; anything
// else goes to encoding/json, whose reading of the same bytes is the
// definition of what the endpoint accepts and of its error texts.
func decodeBatch(body []byte, ops []tufast.StreamOp) ([]tufast.StreamOp, error) {
	if fast, ok := parseBatch(body, ops); ok {
		return fast, nil
	}
	var batch edgeBatch
	// A Decoder, not Unmarshal: it reads one value and leaves what
	// follows it unread, which is what the endpoint has always done.
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&batch); err != nil {
		return ops, err
	}
	for _, op := range batch.Ops {
		// A zero Time keeps request order: ApplyStream sorts stably.
		ops = append(ops, tufast.StreamOp{Time: op.Time, U: op.U, V: op.V, Del: op.Del})
	}
	return ops, nil
}

// Keys of an op, as bits of the seen mask.
const (
	keyU = 1 << iota
	keyV
	keyDel
	keyTime
)

// parseBatch is the fixed-shape decoder: it accepts exactly
//
//	{"ops":[{"u":N,"v":N,"del":B,"time":N},…]}
//
// with the four keys in any order, each at most once and any of them
// absent, N a plain decimal in its field's range, B true or false, and
// JSON whitespace anywhere between tokens — and appends the ops to ops.
// It declines (ok false, ops untouched) on everything else, valid JSON
// or not: an unknown, repeated or escaped key, a sign, fraction or
// exponent, null, a number out of range, anything after the closing
// brace. Whatever it accepts encoding/json decodes to the same ops
// (FuzzDecodeBatch holds it to that).
func parseBatch(b []byte, ops []tufast.StreamOp) (_ []tufast.StreamOp, ok bool) {
	p := batchParser{b: b}
	if !p.token('{') || !p.literal(`"ops"`) || !p.token(':') || !p.token('[') {
		return ops, false
	}
	out := ops
	if n := bytes.Count(b, []byte{'{'}) - 1; cap(out)-len(out) < n {
		// One '{' per op in anything this parser accepts.
		out = append(make([]tufast.StreamOp, 0, len(out)+n), out...)
	}
	if !p.token(']') {
		for {
			op, ok := p.op()
			if !ok {
				return ops, false
			}
			out = append(out, op)
			if p.token(']') {
				break
			}
			if !p.token(',') {
				return ops, false
			}
		}
	}
	if !p.token('}') {
		return ops, false
	}
	p.space()
	if p.i != len(p.b) {
		return ops, false
	}
	return out, true
}

// batchParser is parseBatch's cursor over the body.
type batchParser struct {
	b []byte
	i int
}

// space skips JSON whitespace. Compact bodies have none, so the first
// comparison is the one that usually ends it.
func (p *batchParser) space() {
	b, i := p.b, p.i
	for i < len(b) {
		if c := b[i]; c > ' ' || (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
			break
		}
		i++
	}
	p.i = i
}

// token consumes c, after any whitespace, if it is next.
func (p *batchParser) token(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// literal consumes lit, after any whitespace, if it is next.
func (p *batchParser) literal(lit string) bool {
	p.space()
	if len(p.b)-p.i >= len(lit) && string(p.b[p.i:p.i+len(lit)]) == lit {
		p.i += len(lit)
		return true
	}
	return false
}

// uint consumes a JSON integer in [0, max]: no sign, no leading zero, no
// fraction, no exponent.
func (p *batchParser) uint(max uint64) (uint64, bool) {
	p.space()
	b, i := p.b, p.i
	var v uint64
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		d := uint64(b[i] - '0')
		if v > max/10 || v*10 > max-d {
			return 0, false
		}
		v = v*10 + d
	}
	switch {
	case i == p.i, b[p.i] == '0' && i-p.i > 1:
		return 0, false
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		return 0, false
	}
	p.i = i
	return v, true
}

// op consumes one {"u":…,"v":…,"del":…,"time":…} object.
func (p *batchParser) op() (op tufast.StreamOp, ok bool) {
	if !p.token('{') {
		return op, false
	}
	if p.token('}') {
		return op, true
	}
	seen := 0
	for {
		// The key, told apart by the byte after its opening quote.
		p.space()
		if len(p.b)-p.i < 3 || p.b[p.i] != '"' {
			return op, false
		}
		var key int
		var v uint64
		switch p.b[p.i+1] {
		case 'u':
			key, ok = keyU, p.literal(`"u"`)
		case 'v':
			key, ok = keyV, p.literal(`"v"`)
		case 'd':
			key, ok = keyDel, p.literal(`"del"`)
		case 't':
			key, ok = keyTime, p.literal(`"time"`)
		default:
			return op, false
		}
		if !ok || seen&key != 0 || !p.token(':') {
			return op, false
		}
		seen |= key
		switch key {
		case keyU:
			v, ok = p.uint(1<<32 - 1)
			op.U = uint32(v)
		case keyV:
			v, ok = p.uint(1<<32 - 1)
			op.V = uint32(v)
		case keyTime:
			op.Time, ok = p.uint(1<<64 - 1)
		case keyDel:
			if ok = p.literal("true"); ok {
				op.Del = true
			} else {
				ok = p.literal("false")
			}
		}
		if !ok {
			return op, false
		}
		if p.token('}') {
			return op, true
		}
		if !p.token(',') {
			return op, false
		}
	}
}
