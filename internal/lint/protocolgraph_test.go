package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stubCongest is the slice of the congest API the protocol extraction reads:
// kinds, payload words, Ctx.Send and Ctx.In.
const stubCongest = `package congest

type PayloadKind uint8

type Payload struct {
	Kind           PayloadKind
	W0, W1, W2, W3 uint64
	Ext            []uint64
}

type Message struct {
	From    int
	Payload Payload
	Words   int
}

type Ctx struct{ in []Message }

func (c *Ctx) Send(to int, p Payload, words int) {}
func (c *Ctx) In() []Message                      { return c.in }

func IntWord(v int) uint64 { return uint64(int64(v)) }
func WordInt(w uint64) int { return int(int64(w)) }
`

// pingPong has two identical send sites in one function, a send with a
// words expression in a handler, and a kind switch with two arms.
const pingPong = `package p

import "m/congest"

const (
	kindPing congest.PayloadKind = iota + 1
	kindAck
)

const pingWords = 2

func ping(ctx *congest.Ctx, v int) {
	ctx.Send(v+1, congest.Payload{Kind: kindPing, W0: congest.IntWord(v)}, pingWords)
	ctx.Send(v+1, congest.Payload{Kind: kindPing, W0: congest.IntWord(v)}, pingWords)
}

func onPing(ctx *congest.Ctx) {
	in := ctx.In()
	for i := range in {
		p := &in[i].Payload
		switch p.Kind {
		case kindPing:
			ctx.Send(in[i].From, congest.Payload{Kind: kindAck, W0: p.W0}, 1+pingWords)
		case kindAck:
			_ = congest.WordInt(p.W0)
		}
	}
}
`

// TestProtocolGraphLineFree pins the protocol-v2 keying: lines inserted above
// send and match sites leave the graph's JSON unchanged, while an added send,
// a changed words expression and a removed match each change it.
func TestProtocolGraphLineFree(t *testing.T) {
	root := t.TempDir()
	writeFile(t, filepath.Join(root, "go.mod"), "module m\n\ngo 1.22\n")
	if err := os.Mkdir(filepath.Join(root, "congest"), 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, filepath.Join(root, "congest", "congest.go"), stubCongest)
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}

	// graphOf writes src as its own package and returns its kinds as JSON;
	// the package path differs per variant, so only the kinds are compared.
	graphOf := func(name, src string) string {
		t.Helper()
		dir := filepath.Join(root, name)
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(dir, "p.go"), src)
		g, err := BuildProtocolGraph(l, []string{dir})
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Packages) != 1 {
			t.Fatalf("%s: %d packages in the graph, want 1", name, len(g.Packages))
		}
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(g.Packages[0].Kinds); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	edit := func(old, new string) string {
		t.Helper()
		if strings.Count(pingPong, old) != 1 {
			t.Fatalf("edit: %q is not unique in the fixture", old)
		}
		return strings.Replace(pingPong, old, new, 1)
	}

	base := graphOf("base", pingPong)
	if n := strings.Count(base, `"func": "ping"`); n != 2 {
		t.Errorf("ping's two identical sends give %d records, want 2:\n%s", n, base)
	}

	shifted := edit("func ping(", "// moved\n\n\nfunc ping(")
	shifted = strings.Replace(shifted, "\t\tswitch p.Kind {", "\t\t// moved\n\n\t\tswitch p.Kind {", 1)
	if got := graphOf("shifted", shifted); got != base {
		t.Errorf("inserting lines above the sites changed the graph:\nbase:\n%s\nshifted:\n%s", base, got)
	}

	for _, tc := range []struct{ name, src string }{
		{"addedsend", edit("func onPing(", "func pong(ctx *congest.Ctx) {\n\tctx.Send(0, congest.Payload{Kind: kindAck}, pingWords)\n}\n\nfunc onPing(")},
		{"changedwords", edit("1+pingWords)", "2+pingWords)")},
		{"removedmatch", edit("\t\tcase kindAck:\n\t\t\t_ = congest.WordInt(p.W0)\n", "")},
	} {
		if got := graphOf(tc.name, tc.src); got == base {
			t.Errorf("%s: graph unchanged:\n%s", tc.name, got)
		}
	}
}
