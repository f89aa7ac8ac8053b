package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// replyBuf is one reply's scratch space: an encoder with no indent
// that writes the compact value into compact, and body, the indented
// bytes that go on the wire.
type replyBuf struct {
	compact bytes.Buffer
	enc     *json.Encoder
	body    []byte
}

// maxPooledReply caps the buffers the pool keeps, so that one huge
// reply does not pin its memory for the life of the process.
const maxPooledReply = 64 << 10

var replyBufs = sync.Pool{New: func() any {
	b := new(replyBuf)
	b.enc = json.NewEncoder(&b.compact)
	return b
}}

// jsonContentType is every reply's Content-Type value. The header map
// holds this one slice, which nothing mutates, so that setting it costs
// neither a key canonicalization nor an allocation.
var jsonContentType = []string{"application/json"}

// writeJSON is the one writer of energyd's JSON replies. It encodes the
// whole body before the header goes out, so a value that cannot be
// encoded (a non-finite float) becomes a 500 naming the encode error,
// and it sends the body with one Write. It returns the status it sent.
// The bytes are those of an encoding/json Encoder with
// SetIndent("", "  "): the hot reply types are written directly by
// appendReply, and every other body, or one appendReply declines, is
// encoded compact and indented by appendIndentJSON.
func writeJSON(w http.ResponseWriter, rep reply) int {
	b := replyBufs.Get().(*replyBuf)
	defer putReplyBuf(b)
	var ok bool
	if b.body, ok = appendReply(b.body[:0], rep.body); !ok {
		b.compact.Reset()
		if err := b.enc.Encode(rep.body); err != nil {
			rep = fail(http.StatusInternalServerError, "encoding reply: "+err.Error(), rep.device)
			b.compact.Reset()
			// An ErrorJSON holds two strings: it always encodes.
			_ = b.enc.Encode(rep.body)
		}
		b.body = appendIndentJSON(b.body[:0], b.compact.Bytes())
	}
	h := w.Header()
	h["Content-Type"] = jsonContentType
	if rep.device != "" {
		h["X-Energyd-Device"] = []string{rep.device}
	}
	w.WriteHeader(rep.code)
	// A failed write means the client has gone; the status is sent.
	_, _ = w.Write(b.body)
	return rep.code
}

func putReplyBuf(b *replyBuf) {
	if b.compact.Cap() > maxPooledReply || cap(b.body) > maxPooledReply {
		return
	}
	replyBufs.Put(b)
}

// appendIndentJSON appends to dst what json.Indent(dst, src, "", "  ")
// would. src must be encoding/json's compact output (no whitespace
// outside strings but a trailing newline), which needs no validation:
// only strings can hold punctuation that is not structure, so the
// indenter tracks only whether it is inside one.
func appendIndentJSON(dst, src []byte) []byte {
	depth := 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case '"':
			// Copy the whole string in one step; a backslash escapes
			// the byte after it, so an escaped quote does not end it.
			j := i + 1
			for src[j] != '"' {
				if src[j] == '\\' {
					j++
				}
				j++
			}
			dst = append(dst, src[i:j+1]...)
			i = j
		case '{', '[':
			dst = append(dst, c)
			if next := src[i+1]; next == '}' || next == ']' {
				// Empty objects and arrays stay {} and [].
				dst = append(dst, next)
				i++
				continue
			}
			depth++
			dst = appendNewline(dst, depth)
		case '}', ']':
			depth--
			dst = appendNewline(dst, depth)
			dst = append(dst, c)
		case ',':
			dst = appendNewline(append(dst, c), depth)
		case ':':
			dst = append(dst, ':', ' ')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

func appendNewline(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for ; depth > 0; depth-- {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// appendReply appends the indented body of a hot reply type
// (*PredictResponse, *FleetPredictResponse, *AutotuneResponse,
// PlaceResponse) to dst, byte for byte as writeJSON's encoding/json
// path writes it. It declines (ok false) any other body, a nil pointer,
// a non-finite float, which encoding/json refuses, and a string holding
// a byte encoding/json escapes.
func appendReply(dst []byte, body any) (out []byte, ok bool) {
	w := replyWriter{b: dst, ok: true}
	switch v := body.(type) {
	case *PredictResponse:
		if v == nil {
			return dst, false
		}
		w.open('{')
		w.predict(v)
		w.close('}')
	case *FleetPredictResponse:
		if v == nil {
			return dst, false
		}
		w.open('{')
		if v.DeviceID != "" {
			w.key("device_id")
			w.str(v.DeviceID)
		}
		w.predict(&v.PredictResponse)
		w.close('}')
	case *AutotuneResponse:
		if v == nil {
			return dst, false
		}
		w.open('{')
		w.key("grid")
		w.str(v.Grid)
		w.key("candidates")
		w.int(v.Candidates)
		w.key("cached")
		w.bool(v.Cached)
		w.key("degraded")
		w.bool(v.Degraded)
		w.picks(&v.Picks)
		w.close('}')
	case PlaceResponse:
		w.place(&v)
	default:
		return dst, false
	}
	return append(w.b, '\n'), w.ok
}

// replyWriter appends indented JSON as encoding/json's Encoder with
// SetIndent("", "  ") lays it out. ok turns false at a value it would
// write differently.
type replyWriter struct {
	b     []byte
	depth int
	empty bool // the innermost open container has no member yet
	ok    bool
}

func (w *replyWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

// close ends a container; an empty one stays {} or [].
func (w *replyWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.b = appendNewline(w.b, w.depth)
	}
	w.b = append(w.b, c)
	w.empty = false
}

// next starts a member: the comma after the one before, and its line.
func (w *replyWriter) next() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.b = appendNewline(w.b, w.depth)
	w.empty = false
}

// key starts an object member. Keys are struct tags, which need no
// escaping.
func (w *replyWriter) key(k string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, k...)
	w.b = append(w.b, '"', ':', ' ')
}

// field writes one float-valued object member.
func (w *replyWriter) field(k string, f float64) {
	w.key(k)
	w.num(f)
}

// num writes f as encoding/json writes a float64: the shortest 'f'
// form, or 'e' outside [1e-6, 1e21) with a one-digit negative exponent
// unpadded.
func (w *replyWriter) num(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.ok = false
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

func (w *replyWriter) int(n int) { w.b = strconv.AppendInt(w.b, int64(n), 10) }

func (w *replyWriter) bool(v bool) { w.b = strconv.AppendBool(w.b, v) }

// str writes s quoted. A byte encoding/json would escape (quote,
// backslash, control, HTML-significant or non-ASCII) declines.
func (w *replyWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			w.ok = false
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

func (w *replyWriter) setting(s *SettingInfo) {
	w.open('{')
	w.field("core_mhz", float64(s.CoreMHz))
	w.field("core_mv", float64(s.CoreMV))
	w.field("mem_mhz", float64(s.MemMHz))
	w.field("mem_mv", float64(s.MemMV))
	w.close('}')
}

// predict writes PredictResponse's members into the open object.
func (w *replyWriter) predict(p *PredictResponse) {
	w.key("setting")
	w.setting(&p.Setting)
	w.field("time_s", float64(p.TimeS))
	w.field("predicted_j", float64(p.PredictedJ))
	w.key("parts")
	w.open('{')
	w.field("sp", float64(p.Parts.SP))
	w.field("dp", float64(p.Parts.DP))
	w.field("int", float64(p.Parts.Int))
	w.field("sm", float64(p.Parts.SM))
	w.field("l2", float64(p.Parts.L2))
	w.field("dram", float64(p.Parts.DRAM))
	w.field("constant", float64(p.Parts.Constant))
	w.field("compute", float64(p.Parts.Compute))
	w.field("data", float64(p.Parts.Data))
	w.close('}')
	w.field("const_power_w", float64(p.ConstPowerW))
}

func (w *replyWriter) pick(p *PickJSON) {
	w.open('{')
	w.key("setting")
	w.setting(&p.Setting)
	w.field("time_s", float64(p.TimeS))
	w.field("predicted_j", float64(p.PredictedJ))
	w.field("measured_j", float64(p.MeasuredJ))
	w.close('}')
}

// picks writes the Picks members into the open object, as encoding/json
// inlines an embedded struct.
func (w *replyWriter) picks(p *Picks) {
	w.key("model")
	w.pick(&p.Model)
	w.key("time_oracle")
	w.pick(&p.TimeOracle)
	w.key("measured_min")
	w.pick(&p.MeasuredMin)
	w.field("model_extra_energy_pct", float64(p.ModelExtraEnergyPct))
	w.field("oracle_extra_energy_pct", float64(p.OracleExtraEnergyPct))
}

func (w *replyWriter) place(p *PlaceResponse) {
	w.open('{')
	w.key("grid")
	w.str(p.Grid)
	w.key("devices")
	if p.Devices == nil {
		w.b = append(w.b, "null"...)
	} else {
		w.open('[')
		for i := range p.Devices {
			d := &p.Devices[i]
			w.next()
			w.open('{')
			w.key("device_id")
			w.str(d.DeviceID)
			w.key("candidates")
			w.int(d.Candidates)
			w.picks(&d.Picks)
			w.close('}')
		}
		w.close(']')
	}
	if len(p.Skipped) > 0 {
		w.key("skipped")
		w.open('[')
		for _, sk := range p.Skipped {
			w.next()
			w.open('{')
			w.key("device_id")
			w.str(sk.DeviceID)
			w.key("reason")
			w.str(sk.Reason)
			w.close('}')
		}
		w.close(']')
	}
	w.key("winner")
	w.str(p.Winner)
	w.key("winner_pick")
	w.pick(&p.WinnerPick)
	w.close('}')
}
