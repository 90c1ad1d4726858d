package vmprog

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestLoadRoundTrip saves and reloads every registry program and requires a
// byte-for-byte identical structure.
func TestLoadRoundTrip(t *testing.T) {
	for _, e := range Registry() {
		n := 3
		if e.FixedN > 0 {
			n = e.FixedN
		}
		p, err := e.Build(n)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatalf("%s: save: %v", e.Name, err)
		}
		q, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: load: %v", e.Name, err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("%s: round trip changed the program\nbefore %+v\nafter  %+v", e.Name, p, q)
		}
	}
}

// TestLoadMalformed feeds structurally broken programs to Load and requires
// an error mentioning the defect - never a panic and never silent
// acceptance.
func TestLoadMalformed(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"garbage", `{]`, "decode"},
		{"unknown field", `{"name":"x","vars":["v"],"bogus":1,"code":[]}`, "bogus"},
		{"no name", `{"vars":["v"],"code":[{"op":15}]}`, "no name"},
		{"empty code", `{"name":"x","vars":["v"],"code":[]}`, "empty program"},
		{"no halt", `{"name":"x","vars":["v"],"code":[{"op":14}]}`, "end with Halt"},
		{"no cs", `{"name":"x","vars":["v"],"code":[{"op":15}]}`, "exactly one CS"},
		{"two cs", `{"name":"x","vars":["v"],"code":[{"op":14},{"op":14},{"op":15}]}`,
			"exactly one CS"},
		{"register out of range",
			`{"name":"x","vars":["v"],"code":[{"op":1,"a":8},{"op":14},{"op":15}]}`,
			"register 8 out of range"},
		{"negative register",
			`{"name":"x","vars":["v"],"code":[{"op":4,"a":0,"b":-1},{"op":14},{"op":15}]}`,
			"register -1 out of range"},
		{"variable base out of range",
			`{"name":"x","vars":["v"],"code":[{"op":10,"a":0,"base":1},{"op":14},{"op":15}]}`,
			"variable base 1 out of range"},
		{"index register out of range",
			`{"name":"x","vars":["v"],"code":[{"op":10,"a":0,"base":0,"index":8},{"op":14},{"op":15}]}`,
			"index register 8 out of range"},
		{"jump target out of range",
			`{"name":"x","vars":["v"],"code":[{"op":6,"target":9},{"op":14},{"op":15}]}`,
			"jump target 9 out of range"},
		{"negative jump target",
			`{"name":"x","vars":["v"],"code":[{"op":6,"target":-1},{"op":14},{"op":15}]}`,
			"jump target -1 out of range"},
		{"unknown opcode",
			`{"name":"x","vars":["v"],"code":[{"op":99},{"op":14},{"op":15}]}`,
			"unknown opcode 99"},
		{"bad class",
			`{"name":"x","vars":["v"],"class":7,"code":[{"op":14},{"op":15}]}`,
			"invalid adaptivity class"},
		{"owned array out of range",
			`{"name":"x","vars":["v"],"owned":[{"base":0,"len":2}],"code":[{"op":14},{"op":15}]}`,
			"owned array 0"},
		{"overlapping owned arrays",
			`{"name":"x","vars":["v","w"],"owned":[{"base":0,"len":2},{"base":1,"len":1}],"code":[{"op":14},{"op":15}]}`,
			"overlap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.src))
			if err == nil {
				t.Fatalf("malformed program accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLoadDefaultsScalarIndex checks that an absent index field decodes as a
// scalar access (-1), not register 0.
func TestLoadDefaultsScalarIndex(t *testing.T) {
	src := `{"name":"x","vars":["v"],"code":[{"op":10,"a":0,"base":0},{"op":14},{"op":15}]}`
	p, err := Load(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Code[0].Index; got != -1 {
		t.Fatalf("absent index decoded as %d, want -1", got)
	}
}

// TestLoadRejectsDuplicateVarNames: two variables sharing a name would
// silently corrupt the analyzer's array-extent recovery.
func TestLoadRejectsDuplicateVarNames(t *testing.T) {
	src := `{"name":"x","vars":["v","v"],"code":[{"op":14},{"op":15}]}`
	_, err := Load(strings.NewReader(src))
	if err == nil || !strings.Contains(err.Error(), "duplicate variable") {
		t.Fatalf("duplicate variable names accepted: %v", err)
	}
}

// TestLoadSet exercises the multi-program loader: a valid set round-trips,
// duplicate program names are rejected, and per-program validation applies.
func TestLoadSet(t *testing.T) {
	a := MustPeterson(true)
	b := MustTAS()
	var buf bytes.Buffer
	buf.WriteString("[")
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(",")
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("]")
	set, err := LoadSet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 || set[0].Name != a.Name || set[1].Name != b.Name {
		t.Fatalf("set loaded wrong: %v", set)
	}

	buf.Reset()
	buf.WriteString("[")
	a.Save(&buf)
	buf.WriteString(",")
	a.Save(&buf)
	buf.WriteString("]")
	if _, err := LoadSet(bytes.NewReader(buf.Bytes())); err == nil ||
		!strings.Contains(err.Error(), "duplicate program name") {
		t.Fatalf("duplicate program names accepted: %v", err)
	}

	bad := `[{"name":"x","vars":["v"],"code":[{"op":15}]}]`
	if _, err := LoadSet(strings.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "exactly one CS") {
		t.Fatalf("invalid member accepted: %v", err)
	}
}

// TestHashDistinguishesPrograms: the cache key must separate programs that
// differ in any observable way and agree across a save/load round trip.
func TestHashDistinguishesPrograms(t *testing.T) {
	p := MustPeterson(true)
	h1, err := p.Hash()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := q.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("round trip changed the hash: %s vs %s", h1, h2)
	}
	nf := MustPeterson(false)
	h3, err := nf.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h3 == h1 {
		t.Fatal("distinct programs share a hash")
	}
}

// FuzzLoadProgram feeds arbitrary bytes (seeded with every registry
// program's saved JSON form) to Load and requires: no panics, and any
// accepted program survives validation, hashing, and a save/reload round
// trip to an identical structure.
func FuzzLoadProgram(f *testing.F) {
	for _, e := range Registry() {
		n := 3
		if e.FixedN > 0 {
			n = e.FixedN
		}
		p, err := e.Build(n)
		if err != nil {
			f.Fatalf("%s: %v", e.Name, err)
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			f.Fatalf("%s: %v", e.Name, err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"name":"x","vars":["v","v"],"code":[{"op":14},{"op":15}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("Load accepted a program Validate rejects: %v", err)
		}
		if _, err := p.Hash(); err != nil {
			t.Fatalf("accepted program does not hash: %v", err)
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatalf("accepted program does not save: %v", err)
		}
		q, err := Load(&buf)
		if err != nil {
			t.Fatalf("saved form of accepted program rejected: %v", err)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the program\nbefore %+v\nafter  %+v", p, q)
		}
	})
}
