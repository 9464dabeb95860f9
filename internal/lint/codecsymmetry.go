package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
)

// LM008 codecsymmetry: the encode and decode sides of every payload word
// must use the same codec, and declared word counts must cover the encoded
// footprint. The wire carries bare uint64 words; IntWord/WordInt,
// FloatWord/WordFloat, and BoolWord/WordBool are only inverses of
// themselves, so an asymmetric pair silently decodes garbage. Per kind and
// word index the analyzer reports:
//
//   - an encode whose codec differs from every decode of that word
//     (including a raw, codec-less encode decoded through a codec) — error;
//   - a word that is encoded but never decoded by any receiver of the kind —
//     error: the sender pays bandwidth for a word the protocol ignores;
//   - a decode of a word that no send site of the kind sets — error,
//     reported per send site (the zero value rides the wire as an accidental
//     implicit encoding);
//   - a declared constant word count that does not cover the inline words a
//     literal sets (exactly the 1+max-index footprint, or one more for a
//     kind-tag word) — error.
//
// Decodes are attributed to a kind by the dominating kind switch arm or
// ==/!= guard, including one level of cross-function flow: a helper that
// decodes its *congest.Payload parameter inherits the kind constraint at
// its call sites. Passthrough encodes (W0: p.W0 in a relay literal) are
// exempt — they inherit the original site's codec.
func analyzerCodecSymmetry() *Analyzer {
	return &Analyzer{
		Name: "codecsymmetry",
		Code: "LM008",
		Doc:  "payload word encodes and decodes must use matching codecs and declared word counts",
		Run:  runCodecSymmetry,
	}
}

// encSite is one encoded word at one send-site literal.
type encSite struct {
	pos   token.Pos
	codec string // "int" | "float" | "bool" | "raw" | "passthrough"
}

func runCodecSymmetry(pass *Pass) {
	if !simulatorScoped(pass.Pkg) || pathBase(pass.Pkg.Path) == "congest" {
		return
	}
	pp := extractProtocol(pass.Pkg)
	if len(pp.kinds) == 0 {
		return
	}
	info := pass.Pkg.Info

	// encodeCodecOf classifies one field value expression of a payload
	// literal.
	encodeCodecOf := func(e ast.Expr) string {
		e = ast.Unparen(e)
		if call, ok := e.(*ast.CallExpr); ok {
			if codec, ok := encodeCodec[congestCall(info, call)]; ok {
				return codec
			}
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if _, isWord := wordFieldIndex[sel.Sel.Name]; isWord {
				x := ast.Unparen(sel.X)
				if star, ok := x.(*ast.StarExpr); ok {
					x = ast.Unparen(star.X)
				}
				if tv, ok := info.Types[x]; ok && isCongestNamed(tv.Type, "Payload") {
					return "passthrough"
				}
			}
		}
		return "raw"
	}

	encodes := make(map[*kindConst]map[int][]encSite)
	for _, s := range pp.sends {
		if s.kind == nil || s.lit == nil {
			continue
		}
		for wi, e := range s.fields {
			if encodes[s.kind] == nil {
				encodes[s.kind] = make(map[int][]encSite)
			}
			encodes[s.kind][wi] = append(encodes[s.kind][wi], encSite{pos: e.Pos(), codec: encodeCodecOf(e)})
		}
	}
	decodes := make(map[*kindConst]map[int][]*decodeSite)
	for _, d := range pp.decodes {
		if decodes[d.kind] == nil {
			decodes[d.kind] = make(map[int][]*decodeSite)
		}
		decodes[d.kind][d.wi] = append(decodes[d.kind][d.wi], d)
	}
	matched := make(map[*kindConst]bool)
	for _, m := range pp.matches {
		matched[m.kind] = true
	}

	codecName := map[string]string{
		"int":         "IntWord/WordInt",
		"float":       "FloatWord/WordFloat",
		"bool":        "BoolWord/WordBool",
		"raw":         "no codec (raw)",
		"passthrough": "a relay passthrough",
	}

	for _, kc := range pp.kinds {
		for wi := 0; wi < 4; wi++ {
			encs := encodes[kc][wi]
			decs := decodes[kc][wi]
			decCodecs := make(map[string]bool)
			for _, d := range decs {
				decCodecs[d.codec] = true
			}
			// Mismatched or undecoded encodes.
			for _, e := range encs {
				if e.codec == "passthrough" {
					continue
				}
				if len(decs) == 0 {
					// Only meaningful when the kind has a receive side at
					// all; a never-matched kind is LM007's finding.
					if matched[kc] || len(decodes[kc]) > 0 {
						pass.Reportf(e.pos, "kind %s encodes W%d here but no receiver decodes it", kc.name, wi)
					}
					continue
				}
				// A passthrough decode inherits the sender's codec, so it is
				// compatible with any encode.
				if !decCodecs[e.codec] && !decCodecs["passthrough"] {
					pass.Reportf(e.pos, "kind %s word W%d is encoded with %s but decoded with %s",
						kc.name, wi, codecName[e.codec], codecSetName(decCodecs, codecName))
				}
			}
			// Decoded but never encoded: reported per full-literal send site
			// that leaves the word unset (the implicit zero encode).
			if len(decs) > 0 {
				for _, s := range pp.sends {
					if s.kind != kc || s.lit == nil {
						continue
					}
					if _, set := s.fields[wi]; !set {
						pass.Reportf(s.pos, "kind %s send site leaves W%d unset but receivers decode it", kc.name, wi)
					}
				}
			}
		}

		// Declared word counts: a constant, body-free literal site must
		// declare exactly its inline footprint (1+max set index), or one
		// more when the kind tag is accounted as its own word.
		for _, s := range pp.sends {
			if s.kind != kc || s.lit == nil || s.hasBody || s.wordsExpr == nil {
				continue
			}
			words, ok := constWordCount(info, s.wordsExpr)
			if !ok {
				continue
			}
			inline := 0
			for wi := range s.fields {
				if wi+1 > inline {
					inline = wi + 1
				}
			}
			if words != inline && words != inline+1 {
				pass.Reportf(s.pos, "kind %s send site declares %d words but encodes %d inline word(s) (want %d or %d with the kind tag)",
					kc.name, words, inline, inline, inline+1)
			}
		}
	}
}

// constWordCount evaluates a words expression when it is an integer
// constant.
func constWordCount(info *types.Info, e ast.Expr) (int, bool) {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, ok := constant.Int64Val(tv.Value)
	return int(v), ok
}

// codecSetName renders a decode-codec set for a finding message.
func codecSetName(set map[string]bool, names map[string]string) string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += " and "
		}
		out += names[k]
	}
	return out
}
