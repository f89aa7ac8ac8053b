package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"dvfsroofline/internal/experiments"
	"dvfsroofline/internal/tegra"
)

// The hot-path codec (decodeHot, appendReply) must be invisible on the
// wire. The tests below hold each direction to encoding/json: the
// decoder either declines or yields the value json.Decoder yields, and
// the writer either declines or writes the bytes writeJSON's
// encoding/json path writes.

// hotRequests builds a fresh value of each hot request type; a fuzz
// input's kind byte picks one.
var hotRequests = []func() any{
	func() any { return new(PredictRequest) },
	func() any { return new(FleetPredictRequest) },
	func() any { return new(AutotuneRequest) },
}

// soakBody is one request body from the soak trace with the index of
// its hot request type.
type soakBody struct {
	op   string
	kind uint8
	body []byte
}

// soakBodies reads every request body of cmd/energyload's soak trace.
// fleet_place bodies are AutotuneRequests, as handleFleetPlace decodes
// them.
func soakBodies(tb testing.TB) []soakBody {
	tb.Helper()
	f, err := os.Open("../../cmd/energyload/testdata/soak.jsonl")
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	kinds := map[string]uint8{"predict": 0, "fleet_predict": 1, "autotune": 2, "fleet_place": 2}
	var out []soakBody
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev struct {
			Op   string          `json:"op"`
			Body json.RawMessage `json:"body"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			tb.Fatal(err)
		}
		if kind, ok := kinds[ev.Op]; ok {
			out = append(out, soakBody{ev.Op, kind, ev.Body})
		}
	}
	if err := sc.Err(); err != nil {
		tb.Fatal(err)
	}
	return out
}

// sameWire reports whether two decoded requests are equal, comparing
// floats by their bits so that -0 and 0 differ.
func sameWire(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameWire(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameWire(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.String:
		return a.String() == b.String()
	}
	panic("sameWire: unexpected kind " + a.Kind().String())
}

// cappedPost is a POST of body behind the MaxBytesReader instrument
// puts in front of every handler, with the given cap.
func cappedPost(body []byte, limit int64) *http.Request {
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	r.Body = http.MaxBytesReader(httptest.NewRecorder(), r.Body, limit)
	return r
}

// checkWireDecode holds decodeHot and decodeJSON to encoding/json for
// one body and one hot request type.
func checkWireDecode(t *testing.T, newReq func() any, body []byte) {
	t.Helper()
	// Decode from a scratch copy and overwrite it afterwards: the value
	// must not alias the bytes it was parsed from.
	scratch := append([]byte(nil), body...)
	fast := newReq()
	accepted := decodeHot(scratch, fast)
	for i := range scratch {
		scratch[i] = 'x'
	}
	std := newReq()
	_, stdOK := decodeStd(bytes.NewReader(body), std)
	switch {
	case accepted && !stdOK:
		t.Fatalf("fast path accepted %q, which encoding/json rejects", body)
	case accepted && !sameWire(reflect.ValueOf(fast), reflect.ValueOf(std)):
		t.Fatalf("fast path decoded %q as\n%+v\nencoding/json as\n%+v", body, fast, std)
	case !accepted && !sameWire(reflect.ValueOf(fast), reflect.ValueOf(newReq())):
		t.Fatalf("fast path declined %q but left %+v", body, fast)
	}

	// The whole decoder against the encoding/json path alone, behind a
	// small cap and the production one.
	for _, limit := range []int64{48, maxBodyBytes} {
		got, want := newReq(), newReq()
		gotRep, gotOK := decodeJSON(cappedPost(body, limit), got)
		wantRep, wantOK := decodeStd(cappedPost(body, limit).Body, want)
		if gotOK != wantOK || gotRep.code != wantRep.code || !reflect.DeepEqual(gotRep.body, wantRep.body) {
			t.Fatalf("cap %d, body %q: decodeJSON = %v %d %+v, encoding/json = %v %d %+v",
				limit, body, gotOK, gotRep.code, gotRep.body, wantOK, wantRep.code, wantRep.body)
		}
		if gotOK && !sameWire(reflect.ValueOf(got), reflect.ValueOf(want)) {
			t.Fatalf("cap %d, body %q: decodeJSON gave %+v, encoding/json %+v", limit, body, got, want)
		}
	}
}

// TestWireDecodeAcceptsSoakBodies pins that the fast path serves the
// trace's traffic: a decoder that declined every body would pass the
// differential checks and save nothing.
func TestWireDecodeAcceptsSoakBodies(t *testing.T) {
	bodies := soakBodies(t)
	if len(bodies) < 100 {
		t.Fatalf("soak trace has %d request bodies, want at least 100", len(bodies))
	}
	for _, b := range bodies {
		if !decodeHot(b.body, hotRequests[b.kind]()) {
			t.Errorf("fast path declined %s body %s", b.op, b.body)
		}
		checkWireDecode(t, hotRequests[b.kind], b.body)
	}
}

func FuzzWireDecode(f *testing.F) {
	for i, b := range soakBodies(f) {
		if i%16 == 0 {
			f.Add(b.kind, b.body)
		}
	}
	for _, body := range []string{
		`{"profile": {"dp_fma": 1e9}, "setting_id": "max"}`,
		" \t\n\r{\"profile\":{\"sp\":-0,\"int\":0.5E+3,\"l2_words\":1e-7},\"time_s\":5e-324} \n",
		`{"profile": {"dp_fma": 1e9}, "setting": {"core_mhz": 564, "mem_mhz": 792}, "device": "tk1-reference"}`,
		`{"profile": {"dp_fma": 1e9}, "grid": "full", "timeout_s": 0.5, "occupancy": 0.3}`,
		`{"profile": {}, "setting": {}}`,
		`{}`,
		`{"Profile": {"dp_fma": 1}}`,
		`{"profile": {"DP_FMA": 1}}`,
		`{"profile": {"dp_fma": 1, "dp_fma": 2}}`,
		`{"profile": {"dp_fma": 1}, "profile": {"sp": 2}}`,
		`{"setting": {"core_mhz": 564}, "setting": {"mem_mhz": 792}}`,
		`{"time_s": 1, "time_s": 2}`,
		`{"profile": {"dp_fma": 1e309}}`,
		`{"profile": {"dp_fma": -1e400}}`,
		`{"profile": {"dp_fma": 01}}`,
		`{"profile": {"dp_fma": 1.}}`,
		`{"profile": {"dp_fma": .5}}`,
		`{"profile": {"dp_fma": +1}}`,
		`{"profile": {"dp_fma": 1e}}`,
		`{"profile": {"dp_fma": 0x10}}`,
		`{"profile": {"dp_fma": Infinity}}`,
		`{"profile": {"dp_fma": null}}`,
		`{"profile": {"dp_fma": true}}`,
		`{"profile": {"dp_fma": "1"}}`,
		`{"profile": null}`,
		`{"setting": null, "setting_id": "S3"}`,
		`{"setting_id": null}`,
		`{"setting_id": 3}`,
		`{"setting_id": "S\u0033"}`,
		`{"setting_id": "s3", "device": "tk1-\u00e9"}`,
		`{"setting_id": "Sé"}`,
		"{\"setting_id\": \"S\x013\"}",
		`{"device": "tk1"}`,
		`{"grid": "calibration", "timeout_s": 1e10}`,
		`{"profile": {"dp_fma": 1e9}} trailing`,
		`{"profile": {"dp_fma": 1e9}}{"profile": {}}`,
		`{"profile": {"dp_fma": 1e9},}`,
		`{"profile": {"dp_fma": 1e9} "time_s": 1}`,
		`{"profile" {"dp_fma": 1e9}}`,
		`{"profile": {"dp_fma": 1e9}`,
		`{"profile": {"dp_fma": 1e9, "sp": 2, "dp_add": 3, "dp_mul": 4, "int": 5, "shared_words": 6, "l1_words": 7}}`,
		`[1, 2, 3]`,
		`null`,
		``,
	} {
		for kind := uint8(0); kind < uint8(len(hotRequests)); kind++ {
			f.Add(kind, []byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		checkWireDecode(t, hotRequests[int(kind)%len(hotRequests)], body)
	})
}

// hotReplies builds a fresh value of each hot reply type, as a pointer
// for filling; the writer sees PlaceResponse by value, as the handler
// returns it.
var hotReplies = []func() any{
	func() any { return new(PredictResponse) },
	func() any { return new(FleetPredictResponse) },
	func() any { return new(AutotuneResponse) },
	func() any { return new(PlaceResponse) },
}

// replyBody is the body writeJSON receives for a filled hot reply.
func replyBody(p any) any {
	if v, ok := p.(*PlaceResponse); ok {
		return *v
	}
	return p
}

// replyFiller sets every field of a reply by reflection, so that a
// field added later is filled too and fails the test if the writer
// leaves it out. Float leaf i gets floats[(i+shift)%len(floats)],
// string leaf i strings[(i+shift)%len(strings)], and every slice gets
// slice elements (-1 leaves it nil). A leaf whose index equals bad
// gets badValue instead, when that is set.
type replyFiller struct {
	shift, slice int
	bad          int
	badFloat     float64
	badString    string
	floats, strs int // leaves filled so far
}

var (
	finiteFills = []float64{
		0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-7, -1e-7,
		1e-6, 9.999999e-7, 0.1, 1.5, 852, 123456.789, 1e20, 1e21, -1e21,
		1.7976931348623157e308, 4.2e-9, 0.25,
	}
	plainFills  = []string{"", "tk1-reference", "calibration", "x~\x7f", "S1"}
	escapeFills = []string{"<", ">", "&", "tk1-<&>", `a"b`, `a\b`, "\n", "\x1f", "é", "\u2028"}
)

func (f *replyFiller) fill(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		x := finiteFills[(f.floats+f.shift)%len(finiteFills)]
		if f.floats == f.bad && f.badString == "" {
			x = f.badFloat
		}
		f.floats++
		v.SetFloat(x)
	case reflect.String:
		s := plainFills[(f.strs+f.shift)%len(plainFills)]
		if f.strs == f.bad && f.badString != "" {
			s = f.badString
		}
		f.strs++
		v.SetString(s)
	case reflect.Int:
		v.SetInt(int64(f.shift*15 - 3))
	case reflect.Bool:
		v.SetBool(f.shift%2 == 1)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f.fill(v.Field(i))
		}
	case reflect.Slice:
		if f.slice < 0 {
			return
		}
		s := reflect.MakeSlice(v.Type(), f.slice, f.slice)
		for i := 0; i < f.slice; i++ {
			f.fill(s.Index(i))
		}
		v.Set(s)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem())
	default:
		panic("replyFiller: unexpected kind " + v.Kind().String())
	}
}

// encodedReply is what writeJSON's encoding/json path writes for v, or
// ok false when encoding/json refuses it.
func encodedReply(v any) (b []byte, ok bool) {
	compact, err := json.Marshal(v)
	if err != nil {
		return nil, false
	}
	return appendIndentJSON(nil, append(compact, '\n')), true
}

func TestReplyWriterMatchesEncoding(t *testing.T) {
	for _, newReply := range hotReplies {
		// Every finite value and plain string at every leaf, with nil,
		// empty and filled slices: the writer must accept and match.
		for shift := 0; shift < len(finiteFills); shift++ {
			for slice := -1; slice <= 2; slice++ {
				f := replyFiller{shift: shift, slice: slice, bad: -1}
				p := newReply()
				f.fill(reflect.ValueOf(p).Elem())
				body := replyBody(p)
				want, ok := encodedReply(body)
				if !ok {
					t.Fatalf("encoding/json refused %+v", body)
				}
				got, ok := appendReply(nil, body)
				if !ok || !bytes.Equal(got, want) {
					t.Fatalf("appendReply(%T) = %v\n%s\nwant\n%s", body, ok, got, want)
				}
			}
		}
		// One non-finite float or one string encoding/json escapes, at
		// each leaf in turn: the writer must decline.
		f := replyFiller{slice: 2, bad: -1}
		f.fill(reflect.ValueOf(newReply()).Elem())
		for leaf := 0; leaf < f.floats; leaf++ {
			for _, bad := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
				p := newReply()
				(&replyFiller{slice: 2, bad: leaf, badFloat: bad}).fill(reflect.ValueOf(p).Elem())
				if _, ok := encodedReply(replyBody(p)); ok {
					t.Fatalf("encoding/json accepted %v at float leaf %d of %T", bad, leaf, p)
				}
				if got, ok := appendReply(nil, replyBody(p)); ok {
					t.Fatalf("appendReply(%T) wrote %v at float leaf %d:\n%s", p, bad, leaf, got)
				}
			}
		}
		for leaf := 0; leaf < f.strs; leaf++ {
			for _, bad := range escapeFills {
				p := newReply()
				(&replyFiller{slice: 2, bad: leaf, badString: bad}).fill(reflect.ValueOf(p).Elem())
				if got, ok := appendReply(nil, replyBody(p)); ok {
					t.Fatalf("appendReply(%T) wrote %q at string leaf %d:\n%s", p, bad, leaf, got)
				}
			}
		}
	}
	// Other bodies and nil pointers are encoding/json's.
	for _, body := range []any{ErrorJSON{Error: "x"}, (*PredictResponse)(nil), (*AutotuneResponse)(nil), PredictResponse{}} {
		if _, ok := appendReply(nil, body); ok {
			t.Errorf("appendReply accepted %#v", body)
		}
	}
}

// FuzzReplyWriter writes a fleet predict reply built from a fuzzed
// device ID and fuzzed float bits, eight bytes per float (so NaN
// payloads, infinities and subnormals all occur), and holds it to
// encoding/json's bytes.
func FuzzReplyWriter(f *testing.F) {
	floats := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add("tk1-reference", floats(852, 0.5, 1e-7, math.Copysign(0, -1), 1e21))
	f.Add("<&>", floats(5e-324, math.Inf(1), 0, 1, -2.5))
	f.Add("", floats(math.NaN(), 1, 2, 3, 4))
	f.Fuzz(func(t *testing.T, device string, raw []byte) {
		// A longer ID covers nothing new; capping it keeps the fuzzer
		// from growing, and then minimizing, ever longer ones.
		if len(device) > 32 {
			device = device[:32]
		}
		r := &FleetPredictResponse{DeviceID: device}
		r.Setting = SettingInfo{CoreMHz: 852, CoreMV: 1000, MemMHz: 924, MemMV: 1350}
		r.TimeS, r.PredictedJ, r.ConstPowerW = 0.5, 1.5, 2.5
		r.Parts = PartsJSON{SP: 1, DP: 2, Int: 3, SM: 4, L2: 5, DRAM: 6, Constant: 7, Compute: 8, Data: 9}
		for i, dst := range []*float64{
			(*float64)(&r.TimeS), (*float64)(&r.Parts.SP), (*float64)(&r.Parts.Data),
			(*float64)(&r.ConstPowerW), (*float64)(&r.Setting.MemMV),
		} {
			if len(raw) >= 8*(i+1) {
				*dst = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			}
		}
		want, wantOK := encodedReply(r)
		got, ok := appendReply(nil, r)
		if ok && (!wantOK || !bytes.Equal(got, want)) {
			t.Fatalf("appendReply wrote\n%s\nencoding/json (ok %v)\n%s", got, wantOK, want)
		}
		// encoding/json wrote an ASCII ID unescaped: the writer had no
		// reason to decline.
		plain := device == "" || bytes.Contains(want, []byte(`"device_id": "`+device+`"`))
		if !ok && wantOK && plain && strings.IndexFunc(device, func(r rune) bool { return r >= utf8.RuneSelf }) < 0 {
			t.Fatalf("appendReply declined a reply encoding/json writes plainly:\n%s", want)
		}
	})
}

// firstSoakBodies returns the first soak trace body of each hot
// request type, by type index.
func firstSoakBodies(tb testing.TB) [][]byte {
	bodies := make([][]byte, len(hotRequests))
	for _, b := range soakBodies(tb) {
		if bodies[b.kind] == nil {
			bodies[b.kind] = b.body
		}
	}
	return bodies
}

// BenchmarkDecodeRequest times decodeJSON on a soak trace body of each
// hot request type, behind the MaxBytesReader every request carries.
func BenchmarkDecodeRequest(b *testing.B) {
	bodies := firstSoakBodies(b)
	for kind, name := range []string{"predict", "fleet_predict", "autotune"} {
		body, newReq := bodies[kind], hotRequests[kind]
		b.Run(name, func(b *testing.B) {
			rd := bytes.NewReader(body)
			r := httptest.NewRequest(http.MethodPost, "/", nil)
			r.Body = io.NopCloser(rd)
			dst := newReq()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				if _, ok := decodeJSON(r, dst); !ok {
					b.Fatalf("decoding %s", body)
				}
			}
		})
	}
}

// discardWriter is a ResponseWriter that keeps only its header map.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(int)             {}
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkWriteReply times writeJSON on the reply a fixture server
// gives to a soak trace body of each hot request type.
func BenchmarkWriteReply(b *testing.B) {
	cal, err := FixtureCalibration()
	if err != nil {
		b.Fatal(err)
	}
	s := New(tegra.NewDevice(), cal, experiments.Config{Seed: 42}, Options{})
	bodies := firstSoakBodies(b)
	for kind, c := range []struct {
		name   string
		handle func(*http.Request) reply
	}{
		{"predict", s.handlePredict},
		{"fleet_predict", s.handleFleetPredict},
		{"autotune", s.handleAutotune},
	} {
		rep := c.handle(httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(bodies[kind])))
		if rep.code != http.StatusOK {
			b.Fatalf("%s = %d: %+v", c.name, rep.code, rep.body)
		}
		b.Run(c.name, func(b *testing.B) {
			w := &discardWriter{h: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				writeJSON(w, rep)
			}
		})
	}
}
