package stq

// A strict scanner for the canonical dialect of the two hot JSON request
// bodies (DESIGN.md §13.1): what json.Marshal writes for QueryRequest
// and IngestRequest — exact lowercase known keys in any order, strings
// without escapes, JSON-grammar numbers, ids that are plain integers,
// one value and then only whitespace. It goes from the bytes to the
// working form ([]Event, Query) in one pass and allocates nothing.
//
// The scanner only ever accepts. On anything outside the dialect — an
// escape, an unknown, upper-case or duplicate key, null, 1.0 as an id,
// a syntax error, trailing bytes, an unknown kind — it gives up, and
// the caller hands the same bytes to encoding/json (decodeQueryJSON,
// decodeIngestJSON in serve_codec.go), which alone words refusals and
// is the reference FuzzJSONRequestBodies holds the scanner to: what the
// scanner accepts, the reference accepts with an identical value.

import "strconv"

// jsonScanner is a cursor over one request body. A failed step sets
// bad, which is sticky: every loop ends at its next more, and the
// caller reads bad once at the end.
type jsonScanner struct {
	b   []byte
	i   int
	bad bool
}

// peek returns the byte at the cursor, or 0 (which no token starts
// with) at the end of the body.
func (s *jsonScanner) peek() byte {
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

func (s *jsonScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// expect consumes c after optional whitespace.
func (s *jsonScanner) expect(c byte) {
	s.space()
	if s.peek() != c {
		s.bad = true
		return
	}
	s.i++
}

// open consumes the opening bracket of an object or array and reports
// whether a first member follows; the close of an empty one is
// consumed too.
func (s *jsonScanner) open(open, close byte) bool {
	s.expect(open)
	s.space()
	if s.peek() == close {
		s.i++
		return false
	}
	return !s.bad
}

// more consumes the comma before another member, or the close after the
// last one.
func (s *jsonScanner) more(close byte) bool {
	if s.bad {
		return false
	}
	s.space()
	c := s.peek()
	if c != ',' && c != close {
		s.bad = true
		return false
	}
	s.i++
	return c == ','
}

// end requires that only whitespace is left.
func (s *jsonScanner) end() {
	s.space()
	if s.i != len(s.b) {
		s.bad = true
	}
}

// str scans a string without escapes and returns what is between the
// quotes. Its callers compare the result against known ASCII words, so
// bytes a JSON string may not hold raw need no check of their own: they
// match no word.
func (s *jsonScanner) str() []byte {
	s.expect('"')
	for j := s.i; j < len(s.b) && !s.bad; j++ {
		switch s.b[j] {
		case '"':
			span := s.b[s.i:j]
			s.i = j + 1
			return span
		case '\\':
			s.bad = true
		}
	}
	s.bad = true
	return nil
}

func (s *jsonScanner) digits() {
	start := s.i
	for c := s.peek(); c >= '0' && c <= '9'; c = s.peek() {
		s.i++
	}
	if s.i == start {
		s.bad = true
	}
}

// num scans one number of the JSON grammar and returns its text; plain
// reports an integer literal: no fraction, no exponent. A leading zero
// ends the number after the zero, so "01" fails at whatever the caller
// expects next.
func (s *jsonScanner) num() (text []byte, plain bool) {
	s.space()
	start := s.i
	if s.peek() == '-' {
		s.i++
	}
	if s.peek() == '0' {
		s.i++
	} else {
		s.digits()
	}
	plain = true
	if s.peek() == '.' {
		s.i++
		s.digits()
		plain = false
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.i++
		if c := s.peek(); c == '+' || c == '-' {
			s.i++
		}
		s.digits()
		plain = false
	}
	return s.b[start:s.i], plain
}

// small converts a plain integer literal of at most 15 digits, which
// both int and float64 hold exactly; neg reports its sign apart, so
// that "-0" can become the float -0 ParseFloat makes of it.
func small(text []byte) (v int, neg, ok bool) {
	if neg = text[0] == '-'; neg {
		text = text[1:]
	}
	if len(text) > 15 {
		return 0, neg, false
	}
	for _, c := range text {
		v = v*10 + int(c-'0')
	}
	return v, neg, true
}

// float scans a number into a float64 the way encoding/json does:
// strconv.ParseFloat on the literal, short-cut for small integers. A
// literal out of float64's range gives up, like everything else the
// reference refuses.
func (s *jsonScanner) float() float64 {
	text, plain := s.num()
	if s.bad {
		return 0
	}
	if plain {
		if v, neg, ok := small(text); ok {
			if neg {
				return -float64(v)
			}
			return float64(v)
		}
	}
	f, err := strconv.ParseFloat(string(text), 64)
	if err != nil {
		s.bad = true
	}
	return f
}

// id scans a junction or road id: a plain integer literal that fits an
// int. encoding/json refuses 1.0 and 1e3 for an int field, so they are
// outside the dialect.
func (s *jsonScanner) id() int {
	text, plain := s.num()
	if s.bad || !plain {
		s.bad = true
		return 0
	}
	if v, neg, ok := small(text); ok {
		if neg {
			return -v
		}
		return v
	}
	v, err := strconv.Atoi(string(text))
	if err != nil {
		s.bad = true
	}
	return v
}

// once records that key bit was seen; a second sighting is outside the
// dialect (encoding/json lets the last one win, and merges arrays).
func (s *jsonScanner) once(seen *uint8, bit uint8) {
	if *seen&bit != 0 {
		s.bad = true
	}
	*seen |= bit
}

// scanQuery decodes a canonical POST /v1/query body. rect must be there
// with exactly four numbers; every other key may be absent, as for
// encoding/json.
func scanQuery(b []byte) (Query, bool) {
	const (
		kRect = 1 << iota
		kT1
		kT2
		kKind
		kBound
	)
	var (
		s           = jsonScanner{b: b}
		seen        uint8
		rect        [4]float64
		q           Query
		kind, bound []byte
	)
	for m := s.open('{', '}'); m; m = s.more('}') {
		key := s.str()
		s.expect(':')
		switch string(key) {
		case "rect":
			s.once(&seen, kRect)
			n := 0
			for m := s.open('[', ']'); m; m = s.more(']') {
				if v := s.float(); n < len(rect) {
					rect[n] = v
				}
				n++
			}
			if n != len(rect) {
				s.bad = true
			}
		case "t1":
			s.once(&seen, kT1)
			q.T1 = s.float()
		case "t2":
			s.once(&seen, kT2)
			q.T2 = s.float()
		case "kind":
			s.once(&seen, kKind)
			kind = s.str()
		case "bound":
			s.once(&seen, kBound)
			bound = s.str()
		default:
			s.bad = true
		}
	}
	s.end()
	q.Rect = rectOf(rect)
	var knownKind, knownBound bool
	q.Kind, knownKind = kindOf(string(kind))
	q.Bound, knownBound = boundOf(string(bound))
	return q, knownKind && knownBound && !s.bad && seen&kRect != 0
}

// event scans one element of the events array.
func (s *jsonScanner) event() Event {
	const (
		kKind = 1 << iota
		kT
		kRoad
		kFrom
		kGateway
	)
	var (
		seen                uint8
		kind                []byte
		t                   float64
		road, from, gateway int
	)
	for m := s.open('{', '}'); m; m = s.more('}') {
		key := s.str()
		s.expect(':')
		switch string(key) {
		case "kind":
			s.once(&seen, kKind)
			kind = s.str()
		case "t":
			s.once(&seen, kT)
			t = s.float()
		case "road":
			s.once(&seen, kRoad)
			road = s.id()
		case "from":
			s.once(&seen, kFrom)
			from = s.id()
		case "gateway":
			s.once(&seen, kGateway)
			gateway = s.id()
		default:
			s.bad = true
		}
	}
	ev, known := eventOf(string(kind), t, road, from, gateway)
	if !known || seen&kT == 0 {
		s.bad = true
	}
	return ev
}

// scanIngest decodes a canonical POST /v1/ingest body, appending its
// events to dst. An event with no t, like one of an unknown kind, is
// left to the reference to refuse.
func scanIngest(b []byte, dst []Event) ([]Event, bool) {
	s := jsonScanner{b: b}
	var seen uint8
	for m := s.open('{', '}'); m; m = s.more('}') {
		if string(s.str()) != "events" {
			s.bad = true
		}
		s.once(&seen, 1)
		s.expect(':')
		for m := s.open('[', ']'); m; m = s.more(']') {
			dst = append(dst, s.event())
		}
	}
	s.end()
	return dst, !s.bad
}
