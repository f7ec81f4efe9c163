package main

// Inputs and the answer oracle. The corpus is generated from the seed
// with internal/corpus; every expected answer is computed here from the
// generated xmlkit trees by an evaluator that shares no code with the
// engine's, so a wrong answer from the store shows up as a failed
// operation.

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"natix/internal/corpus"
	"natix/internal/xmlkit"
)

// The fixed query shapes of the read mix. q1–q3 are the paper's
// queries 1–3 (§4); qFirst is pulled through a WithLimit(1) cursor;
// qSweep's wildcard step keeps it off the path index, so it always
// runs the navigating scan over the whole document.
const (
	q1     = "/PLAY/ACT[3]/SCENE[2]//SPEAKER"
	q2     = "//SCENE/SPEECH[1]"
	q3     = "/PLAY/ACT[1]/SCENE[1]/SPEECH[1]"
	qFirst = "//LINE"
	qSweep = "/PLAY/*/SCENE//LINE"
)

// noteElem is the only element the edit generator inserts. Notes hold
// only text and go only into scenes after their first speech, so no
// fixed query shape ever matches inside one or changes its answer.
const noteElem = "NOTE"

// play is one corpus document with its expected answers.
type play struct {
	name  string
	xml   []byte
	nodes int
	want  answers
}

// answers are the expected results of the fixed query shapes.
type answers struct {
	point3 string // markup of q3's single match
	first  string // markup of qFirst's first match
	q1, q2 digest // all matches' markup
	lines  int    // QueryCount(qSweep)
}

// digest summarizes an ordered list of markups.
type digest struct {
	n     int
	bytes int
	sum   uint64
}

func digestOf(markups []string) digest {
	h := fnv.New64a()
	d := digest{n: len(markups)}
	for _, m := range markups {
		d.bytes += len(m)
		h.Write([]byte(m))
		h.Write([]byte{0})
	}
	d.sum = h.Sum64()
	return d
}

// corpusData is the generated input of one run.
type corpusData struct {
	spec  corpus.Spec
	plays []play
	bytes int64
	nodes int
}

// buildCorpus generates the seed's corpus and its oracle. keepTrees
// returns the trees too, for the standalone serializer probe; otherwise
// they are dropped so the benchmark's own heap stays small.
func buildCorpus(seed int64, keepTrees bool) (*corpusData, []*xmlkit.Node, error) {
	spec := corpus.DefaultSpec()
	spec.Seed = seed
	trees := corpus.Generate(spec)
	c := &corpusData{spec: spec}
	for i, t := range trees {
		p := play{name: fmt.Sprintf("play%02d", i), xml: []byte(xmlkit.SerializeString(t)), nodes: t.CountNodes()}
		var err error
		if p.want, err = oracle(t); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", p.name, err)
		}
		c.plays = append(c.plays, p)
		c.bytes += int64(len(p.xml))
		c.nodes += p.nodes
	}
	if !keepTrees {
		trees = nil
	}
	return c, trees, nil
}

func oracle(root *xmlkit.Node) (answers, error) {
	var a answers
	m3 := evalPath(root, q3)
	mf := evalPath(root, qFirst)
	if len(m3) != 1 || len(mf) == 0 {
		return a, fmt.Errorf("oracle: q3 has %d matches, %s has %d", len(m3), qFirst, len(mf))
	}
	a.point3 = xmlkit.SerializeString(m3[0])
	a.first = xmlkit.SerializeString(mf[0])
	a.q1 = digestOf(markups(evalPath(root, q1)))
	a.q2 = digestOf(markups(evalPath(root, q2)))
	a.lines = len(evalPath(root, qSweep))
	return a, nil
}

func markups(ns []*xmlkit.Node) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = xmlkit.SerializeString(n)
	}
	return out
}

// step is one location step of the query fragment: child or descendant
// axis, a name test ("*" any element), an optional 1-based position
// among the nodes the step selects from one context node.
type step struct {
	desc bool
	name string
	pos  int
}

func parsePath(q string) []step {
	var out []step
	for _, part := range strings.Split(q, "/")[1:] {
		if part == "" { // the empty element between the two slashes of "//"
			out = append(out, step{desc: true})
			continue
		}
		st := step{name: part}
		if i := strings.IndexByte(part, '['); i >= 0 {
			st.name = part[:i]
			st.pos, _ = strconv.Atoi(strings.TrimSuffix(part[i+1:], "]"))
		}
		if n := len(out); n > 0 && out[n-1].desc && out[n-1].name == "" {
			st.desc = true
			out[n-1] = st
			continue
		}
		out = append(out, st)
	}
	return out
}

// evalPath evaluates q against a document whose root element is root.
// The document node is the initial context, so the first child step
// tests the root element and a leading // includes it.
func evalPath(root *xmlkit.Node, q string) []*xmlkit.Node {
	doc := &xmlkit.Node{Name: "#document", Children: []*xmlkit.Node{root}}
	ctx := []*xmlkit.Node{doc}
	for _, st := range parsePath(q) {
		var next []*xmlkit.Node
		for _, n := range ctx {
			var sel []*xmlkit.Node
			if st.desc {
				sel = descendants(n, st.name, sel)
			} else {
				for _, c := range n.Children {
					if nameMatches(c, st.name) {
						sel = append(sel, c)
					}
				}
			}
			if st.pos > 0 {
				if st.pos > len(sel) {
					continue
				}
				sel = sel[st.pos-1 : st.pos]
			}
			next = append(next, sel...)
		}
		ctx = next
	}
	return ctx
}

func descendants(n *xmlkit.Node, name string, out []*xmlkit.Node) []*xmlkit.Node {
	for _, c := range n.Children {
		if nameMatches(c, name) {
			out = append(out, c)
		}
		out = descendants(c, name, out)
	}
	return out
}

func nameMatches(n *xmlkit.Node, name string) bool {
	return !n.IsText() && (name == "*" || n.Name == name)
}

// stripNotes removes every NOTE element from serialized XML. Notes hold
// only text, which never contains '<', so the first "</NOTE>" after an
// opening tag closes it.
func stripNotes(xml []byte) []byte {
	const open, empty, closeTag = "<" + noteElem + ">", "<" + noteElem + "/>", "</" + noteElem + ">"
	s := string(xml)
	var b strings.Builder
	for {
		i := strings.Index(s, "<"+noteElem)
		if i < 0 {
			b.WriteString(s)
			return []byte(b.String())
		}
		b.WriteString(s[:i])
		rest := s[i:]
		switch {
		case strings.HasPrefix(rest, empty):
			s = rest[len(empty):]
		case strings.HasPrefix(rest, open):
			j := strings.Index(rest, closeTag)
			if j < 0 {
				b.WriteString(rest)
				return []byte(b.String())
			}
			s = rest[j+len(closeTag):]
		default: // another element whose name starts with NOTE
			b.WriteString(rest[:1])
			s = rest[1:]
		}
	}
}
