package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func span(start, end time.Duration) Span { return Span{Start: start, End: end} }

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	for _, c := range []struct {
		name     string
		parent   Span
		children []Span
		want     time.Duration
	}{
		{"no children", span(0, 100), nil, 100},
		{"nested, disjoint", span(0, 100), []Span{span(10, 30), span(60, 70)}, 70},
		{"overlapping children count once", span(0, 100), []Span{span(10, 30), span(20, 50), span(60, 70)}, 50},
		{"contained child", span(0, 100), []Span{span(10, 60), span(20, 30)}, 50},
		{"touching children", span(0, 100), []Span{span(10, 20), span(20, 30)}, 80},
		{"sequential probes after the span", span(0, 10), []Span{span(10, 25), span(25, 40)}, -20},
	} {
		if got := SelfTime(c.parent, c.children); got != c.want {
			t.Errorf("%s: SelfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTracerWritesJSONL(t *testing.T) {
	tr := NewTracer()
	tr.Begin(true)
	start := now()
	root := tr.Add(0, "serve.predict", Attrs{Root: true, Op: "predict"}, start, start.Add(time.Millisecond))
	child := tr.Time(root, "serve.decode", Attrs{}, func() {})
	if root != 1 || child != 2 {
		t.Fatalf("span IDs %d, %d; want 1, 2", root, child)
	}
	path := filepath.Join(t.TempDir(), "spans", "x.jsonl")
	if err := tr.WriteJSONL(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []Span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[0].Name != "serve.predict" || got[0].Dur() != time.Millisecond ||
		got[1].Parent != 1 || got[1].Req != 1 || !got[1].Attrs.Own || !got[0].Attrs.Root {
		t.Errorf("spans read back = %+v", got)
	}
}
