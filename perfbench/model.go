package main

import (
	"bytes"
	"fmt"
	"strconv"
)

// Outcome is one request's result, from a protocol reply or from a direct
// call into a lower layer.
type Outcome struct {
	// Refused marks an error reply (-ERR, -BUSY, -MOVED, -READONLY, ...) or a
	// request that got no reply; it counts as failed.
	Refused bool
	// Found: for GET, a value came back; for DEL, the key existed.
	Found bool
	Val   uint64 // GET's value when Found
}

// ParseReply decodes the reply line (without CRLF) to a request of kind k.
// A line that is no valid reply to k is an error.
func ParseReply(k Kind, line []byte) (Outcome, error) {
	if len(line) > 0 && line[0] == '-' {
		return Outcome{Refused: true}, nil
	}
	switch k {
	case Set:
		if bytes.Equal(line, []byte("+OK")) {
			return Outcome{}, nil
		}
	case Get:
		if bytes.Equal(line, []byte("$-1")) {
			return Outcome{}, nil
		}
		if len(line) > 1 && line[0] == ':' {
			if v, err := strconv.ParseUint(string(line[1:]), 10, 64); err == nil {
				return Outcome{Found: true, Val: v}, nil
			}
		}
	case Del:
		switch string(line) {
		case ":1":
			return Outcome{Found: true}, nil
		case ":0":
			return Outcome{}, nil
		}
	}
	return Outcome{}, fmt.Errorf("malformed reply %q to %s", line, k)
}

// Model predicts the replies for the keys one connection owns. Only that
// connection touches them and the server answers it in order, so every
// reply is determined by the connection's earlier requests. A refused
// mutation may or may not have been applied; its key is unknown until the
// next acknowledged SET or DEL re-anchors it.
type Model struct {
	vals    map[uint64]uint64
	unknown map[uint64]bool
}

func NewModel() *Model {
	return &Model{vals: make(map[uint64]uint64), unknown: make(map[uint64]bool)}
}

// Check verifies o as the result of r and advances the model. It returns
// an error for a wrong result; a refused request is not an error here (the
// caller counts it as failed).
func (m *Model) Check(r Req, o Outcome) error {
	if o.Refused {
		if r.Kind != Get {
			m.unknown[r.Key] = true
		}
		return nil
	}
	want, present := m.vals[r.Key]
	unknown := m.unknown[r.Key]
	switch r.Kind {
	case Get:
		if !unknown && (o.Found != present || (present && o.Val != want)) {
			return fmt.Errorf("GET %d: got %s, want %s", r.Key, fmtGet(o.Found, o.Val), fmtGet(present, want))
		}
	case Set:
		m.vals[r.Key] = r.Val
		delete(m.unknown, r.Key)
	case Del:
		if !unknown && o.Found != present {
			return fmt.Errorf("DEL %d: got removed=%v, want %v", r.Key, o.Found, present)
		}
		delete(m.vals, r.Key)
		delete(m.unknown, r.Key)
	}
	return nil
}

// Live counts the keys known to be present.
func (m *Model) Live() int { return len(m.vals) }

func fmtGet(found bool, v uint64) string {
	if !found {
		return "nil"
	}
	return strconv.FormatUint(v, 10)
}
