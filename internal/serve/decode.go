package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// bodyBufs pools the buffers decodeJSON reads request bodies into.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// decodeJSON parses a POST body as exactly one JSON value, rejecting
// unknown fields so typos in profile keys surface as 400s instead of
// silently predicting zero, and rejecting anything but whitespace after
// the value so a second body is never dropped unread. On failure ok is
// false and rep is the error reply.
//
// The body is read once into a pooled buffer. The hot request types
// (PredictRequest, FleetPredictRequest, AutotuneRequest) first go
// through decodeHot, a one-pass parser for a strict subset of JSON.
// Whatever it declines, and any body whose read failed or ran over the
// cap, is decoded by encoding/json from the same byte stream followed
// by the rest of r.Body, so every error keeps its text.
func decodeJSON(r *http.Request, dst any) (rep reply, ok bool) {
	if r.Method != http.MethodPost {
		return fail(http.StatusMethodNotAllowed, "POST only", ""), false
	}
	buf := bodyBufs.Get().(*bytes.Buffer)
	defer putBodyBuf(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(r.Body); err == nil && decodeHot(buf.Bytes(), dst) {
		return reply{}, true
	}
	return decodeStd(io.MultiReader(bytes.NewReader(buf.Bytes()), r.Body), dst)
}

func putBodyBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledReply {
		bodyBufs.Put(b)
	}
}

// decodeStd is decodeJSON's encoding/json path: one value, no unknown
// fields, nothing but whitespace after it.
func decodeStd(body io.Reader, dst any) (rep reply, ok bool) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fail(http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err), ""), false
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return fail(http.StatusBadRequest, "bad request body: trailing data after the JSON value", ""), false
	}
	return reply{}, true
}

// decodeHot parses body into dst when dst is a hot request type and
// body lies inside the subset of JSON it accepts:
//
//   - keys that match a field's tag exactly, each at most once;
//   - numbers in strict JSON grammar that strconv.ParseFloat parses;
//   - strings with no escape, control or non-ASCII byte;
//   - objects where the field is a struct, numbers where it is a float,
//     strings where it is a string (no null, true or false anywhere);
//   - only JSON whitespace after the value.
//
// Inside that subset encoding/json decodes to the same value. Anything
// else is declined: decodeHot reports false and leaves dst zeroed.
func decodeHot(body []byte, dst any) bool {
	s := wireScanner{b: body}
	switch v := dst.(type) {
	case *PredictRequest:
		if s.predictRequest(v, nil) && s.end() {
			return true
		}
		*v = PredictRequest{}
	case *FleetPredictRequest:
		if s.predictRequest(&v.PredictRequest, &v.Device) && s.end() {
			return true
		}
		*v = FleetPredictRequest{}
	case *AutotuneRequest:
		if s.autotuneRequest(v) && s.end() {
			return true
		}
		*v = AutotuneRequest{}
	}
	return false
}

// wireScanner is decodeHot's cursor over one body.
type wireScanner struct {
	b []byte
	i int
}

// peek skips JSON whitespace and returns the next byte, or 0 at the end.
func (s *wireScanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// end reports whether only whitespace is left.
func (s *wireScanner) end() bool {
	s.peek()
	return s.i == len(s.b)
}

// object scans one JSON object, calling field for each key with the
// scanner at the key's value; field reports false to decline.
func (s *wireScanner) object(field func(key []byte) bool) bool {
	if s.peek() != '{' {
		return false
	}
	s.i++
	if s.peek() == '}' {
		s.i++
		return true
	}
	for {
		key, ok := s.str()
		if !ok || s.peek() != ':' {
			return false
		}
		s.i++
		if !field(key) {
			return false
		}
		switch s.peek() {
		case ',':
			s.i++
		case '}':
			s.i++
			return true
		default:
			return false
		}
	}
}

// first marks field i of an object as seen and reports whether it was
// new; a repeated key is declined.
func first(seen *uint16, i uint) bool {
	if *seen&(1<<i) != 0 {
		return false
	}
	*seen |= 1 << i
	return true
}

// str scans a string that holds no escape, control or non-ASCII byte
// and returns its contents, which alias the body.
func (s *wireScanner) str() ([]byte, bool) {
	if s.peek() != '"' {
		return nil, false
	}
	for i := s.i + 1; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			v := s.b[s.i+1 : i]
			s.i = i + 1
			return v, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// text scans a string into dst as a copy that does not alias the body.
func (s *wireScanner) text(dst *string) bool {
	v, ok := s.str()
	if ok {
		*dst = wireLabel(v)
	}
	return ok
}

// wireLabel copies v into a string, returning the constant label
// instead for the setting IDs and grid names requests repeat.
func wireLabel(v []byte) string {
	for _, ns := range validationSettings {
		if string(v) == ns.id {
			return ns.id
		}
	}
	switch string(v) {
	case "max":
		return "max"
	case "calibration":
		return "calibration"
	case "full":
		return "full"
	}
	return string(v)
}

// num scans a number in strict JSON grammar and parses it as
// encoding/json does; a value ParseFloat rejects (out of range) is
// declined.
func (s *wireScanner) num() (float64, bool) {
	s.peek()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	f, err := strconv.ParseFloat(string(b[s.i:i]), 64)
	s.i = i
	return f, err == nil
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// scanNum scans a number into a float-valued field.
func scanNum[T ~float64](s *wireScanner, dst *T) bool {
	f, ok := s.num()
	*dst = T(f)
	return ok
}

// predictRequest scans a PredictRequest, or with device non-nil the
// FleetPredictRequest that adds a "device" key.
func (s *wireScanner) predictRequest(req *PredictRequest, device *string) bool {
	var seen uint16
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "profile":
			return first(&seen, 0) && s.profile(&req.Profile)
		case "setting":
			return first(&seen, 1) && s.setting(&req.Setting)
		case "setting_id":
			return first(&seen, 2) && s.text(&req.SettingID)
		case "time_s":
			return first(&seen, 3) && scanNum(s, &req.TimeS)
		case "occupancy":
			return first(&seen, 4) && scanNum(s, &req.Occupancy)
		case "device":
			return device != nil && first(&seen, 5) && s.text(device)
		}
		return false
	})
}

func (s *wireScanner) autotuneRequest(req *AutotuneRequest) bool {
	var seen uint16
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "profile":
			return first(&seen, 0) && s.profile(&req.Profile)
		case "occupancy":
			return first(&seen, 1) && scanNum(s, &req.Occupancy)
		case "grid":
			return first(&seen, 2) && s.text(&req.Grid)
		case "timeout_s":
			return first(&seen, 3) && scanNum(s, &req.TimeoutS)
		}
		return false
	})
}

func (s *wireScanner) profile(p *ProfileJSON) bool {
	var seen uint16
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "sp":
			return first(&seen, 0) && scanNum(s, &p.SP)
		case "dp_fma":
			return first(&seen, 1) && scanNum(s, &p.DPFMA)
		case "dp_add":
			return first(&seen, 2) && scanNum(s, &p.DPAdd)
		case "dp_mul":
			return first(&seen, 3) && scanNum(s, &p.DPMul)
		case "int":
			return first(&seen, 4) && scanNum(s, &p.Int)
		case "shared_words":
			return first(&seen, 5) && scanNum(s, &p.SharedWords)
		case "l1_words":
			return first(&seen, 6) && scanNum(s, &p.L1Words)
		case "l2_words":
			return first(&seen, 7) && scanNum(s, &p.L2Words)
		case "dram_words":
			return first(&seen, 8) && scanNum(s, &p.DRAMWords)
		}
		return false
	})
}

// setting scans an explicit setting object; null is declined.
func (s *wireScanner) setting(dst **SettingJSON) bool {
	v := new(SettingJSON)
	*dst = v
	var seen uint16
	return s.object(func(key []byte) bool {
		switch string(key) {
		case "core_mhz":
			return first(&seen, 0) && scanNum(s, &v.CoreMHz)
		case "mem_mhz":
			return first(&seen, 1) && scanNum(s, &v.MemMHz)
		}
		return false
	})
}
