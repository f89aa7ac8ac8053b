package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// indentCases are compact encoding/json outputs that cross every branch
// of the indenter: empty and nested-empty containers, strings holding
// escapes and structural punctuation, and top-level scalars.
var indentCases = []string{
	"{}\n", "[]\n", `{"a":{}}` + "\n", `[[],{},[{}]]` + "\n", `{"a":[]}`,
	`{"a":1,"b":[1,2,{"c":null}],"d":{"e":true,"f":false}}` + "\n",
	`["\"","\\","\\\"","\u003c","\u2028","` + "<\u2028" + `","{",",",":","}]","a\"b:c,{d}"]`,
	`{"k\":{":"v\\","\\":"\"","<\u003e&":"\u0026"}` + "\n",
	"\"a string\"\n", "1.5e+300\n", "-0\n", "true\n", "null\n", `""`, "0",
	`{"error":"encoding reply: json: unsupported value: +Inf"}` + "\n",
}

func TestIndentJSONMatchesIndent(t *testing.T) {
	for _, src := range indentCases {
		var want bytes.Buffer
		if err := json.Indent(&want, []byte(src), "", "  "); err != nil {
			t.Fatalf("json.Indent(%q): %v", src, err)
		}
		if got := appendIndentJSON(nil, []byte(src)); !bytes.Equal(got, want.Bytes()) {
			t.Errorf("appendIndentJSON(%q)\n got %q\nwant %q", src, got, want.Bytes())
		}
	}
}

// TestWriteJSONMatchesSetIndent pins the writer to the encoder it
// replaced, including the default HTML escaping and the trailing
// newline, over values shaped like energyd's replies.
func TestWriteJSONMatchesSetIndent(t *testing.T) {
	values := []any{
		ErrorJSON{Error: `bad <body> & "quotes" ` + "\u2028"},
		&PredictResponse{Setting: SettingInfo{CoreMHz: 852, MemMHz: 924}},
		StatsResponse{States: map[string]int{}, Devices: []DeviceStats{}},
		map[string][]int{"a": {1, 2}, "b": nil, "c": {}},
		"top-level string", 42.5,
	}
	for _, v := range values {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
		w := &recorder{header: http.Header{}}
		if code := writeJSON(w, reply{http.StatusTeapot, v, ""}); code != http.StatusTeapot {
			t.Errorf("writeJSON(%T) sent %d, want %d", v, code, http.StatusTeapot)
		}
		if !bytes.Equal(w.body.Bytes(), want.Bytes()) {
			t.Errorf("writeJSON(%T)\n got %q\nwant %q", v, w.body.Bytes(), want.Bytes())
		}
		if w.writes != 1 {
			t.Errorf("writeJSON(%T) wrote %d times, want once", v, w.writes)
		}
	}
}

// recorder counts Write calls, which httptest.ResponseRecorder does not.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
	writes int
}

func (r *recorder) Header() http.Header  { return r.header }
func (r *recorder) WriteHeader(code int) { r.code = code }
func (r *recorder) Write(p []byte) (int, error) {
	r.writes++
	return r.body.Write(p)
}

// TestNonFinitePredictIs500 sends a profile whose predicted energy
// overflows to +Inf, which JSON cannot carry. The reply must be a 500
// naming the encode error, never an empty 200, and the endpoint's
// counters must record the 500 that was sent.
func TestNonFinitePredictIs500(t *testing.T) {
	servers := map[string]*Server{"legacy": newTestServer(t), "fleet": testFleet(t, 3, Options{})}
	body := `{"profile": {"dp_fma": 1e308, "dram_words": 1e308, "sp": 1e308}, "setting_id": "max"}`
	for name, s := range servers {
		h := s.Handler()
		for _, path := range []string{"/v1/predict", "/v1/fleet/predict"} {
			w := postJSON(t, h, path, body)
			if w.Code != http.StatusInternalServerError {
				t.Errorf("%s %s = %d %q, want 500", name, path, w.Code, w.Body)
				continue
			}
			var e ErrorJSON
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
				t.Fatalf("%s %s: 500 body is not an ErrorJSON: %v: %q", name, path, err, w.Body)
			}
			if !strings.Contains(e.Error, "unsupported value: +Inf") {
				t.Errorf("%s %s: error %q does not name the encode failure", name, path, e.Error)
			}
			if dev := w.Header().Get("X-Energyd-Device"); dev != e.DeviceID {
				t.Errorf("%s %s: header device %q, body device %q", name, path, dev, e.DeviceID)
			}
		}
		var stats StatsResponse
		if err := json.Unmarshal(getPath(t, h, "/v1/stats").Body.Bytes(), &stats); err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{"/v1/predict", "/v1/fleet/predict"} {
			if got := stats.Endpoints[path].ByCode; got["500"] != 1 || len(got) != 1 {
				t.Errorf("%s %s counted %v, want one 500", name, path, got)
			}
		}
	}
}

// FuzzIndentJSON holds the indenter to json.Indent on the compact form
// of every valid JSON input.
func FuzzIndentJSON(f *testing.F) {
	for _, src := range indentCases {
		f.Add([]byte(src))
	}
	f.Add([]byte(`{ "a" : [ 1 , { } , [ ] , "\ud83d\ude00" ] }`))
	f.Fuzz(func(t *testing.T, src []byte) {
		if !json.Valid(src) {
			return
		}
		var compact, want bytes.Buffer
		if err := json.Compact(&compact, src); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&want, compact.Bytes(), "", "  "); err != nil {
			t.Fatal(err)
		}
		if got := appendIndentJSON(nil, compact.Bytes()); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("appendIndentJSON(%q)\n got %q\nwant %q", compact.Bytes(), got, want.Bytes())
		}
	})
}
