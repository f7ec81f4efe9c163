package main

// The edit generator. Edits are seeded Document calls skewed to a hot
// set of scenes, so the records holding those scenes grow until the
// split algorithm (§3) runs. Every edit is mirrored on an in-memory
// xmlkit tree; at the end of a run the exports of edited documents
// must equal the mirror.

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"natix"
	"natix/internal/xmlkit"
)

// hotScenes is the size of the hot set.
const hotScenes = 16

var noteWords = strings.Fields(`aside marginal gloss variant folio quarto reading
	emendation cue prompt cut restored omitted added line speech scene
	editor compositor printer copy staging direction sound music`)

type hotScene struct{ doc, act, scene int }

// editor generates edits against one open store and mirrors them.
type editor struct {
	c      *corpusData
	rng    *rand.Rand
	zipf   *rand.Zipf
	hot    []hotScene
	mirror map[int]*xmlkit.Node
	db     *natix.DB // the store the handles belong to
	handle map[int]*natix.Document
}

// newEditor returns an editor whose hot scenes lie in the given
// documents.
func newEditor(c *corpusData, seed int64, docs []int) (*editor, error) {
	rng := rand.New(rand.NewSource(seed))
	e := &editor{c: c, rng: rng, mirror: map[int]*xmlkit.Node{}, handle: map[int]*natix.Document{}}
	// Each document holds the same number of hot scenes, and the Zipf
	// ranks alternate between documents, so every seed gives the
	// writer the same per-document skew; only the scenes differ.
	for len(e.hot) < hotScenes {
		d := docs[len(e.hot)%len(docs)]
		root, err := e.tree(d)
		if err != nil {
			return nil, err
		}
		a := rng.Intn(c.spec.ActsPerPlay)
		s := rng.Intn(len(root.Children[2+a].Children) - 1)
		h := hotScene{d, a, s}
		if !slices.Contains(e.hot, h) {
			e.hot = append(e.hot, h)
		}
	}
	e.zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(e.hot)-1))
	return e, nil
}

// tree returns the mirror of document d, parsing it on first use.
func (e *editor) tree(d int) (*xmlkit.Node, error) {
	if t, ok := e.mirror[d]; ok {
		return t, nil
	}
	doc, err := xmlkit.ParseString(string(e.c.plays[d].xml), xmlkit.ParseOptions{})
	if err != nil {
		return nil, err
	}
	e.mirror[d] = doc.Root
	return doc.Root, nil
}

// edit is one generated edit: call runs it against the store, apply
// mirrors it once call has succeeded.
type edit struct {
	doc   int
	kind  string
	call  func(*natix.Document) error
	apply func()
}

// next draws the next edit. Paths are child indexes from the PLAY
// root: ACT a is child 2+a of PLAY (after TITLE and PERSONAE), SCENE s
// is child 1+s of its ACT (after TITLE).
func (e *editor) next() edit {
	h := e.hot[e.zipf.Uint64()]
	root := e.mirror[h.doc]
	scene := root.Children[2+h.act].Children[1+h.scene]
	scenePath := []int{2 + h.act, 1 + h.scene}
	firstSpeech := slices.IndexFunc(scene.Children, func(n *xmlkit.Node) bool { return n.Name == "SPEECH" })
	var notes []int
	for i, c := range scene.Children {
		if c.Name == noteElem {
			notes = append(notes, i)
		}
	}
	r := e.rng.Float64()
	if len(notes) == 0 || r < 0.25 {
		idx := firstSpeech + 1 + e.rng.Intn(len(scene.Children)-firstSpeech)
		return edit{doc: h.doc, kind: "insert_element",
			call:  func(d *natix.Document) error { return d.InsertElement(scenePath, idx, noteElem) },
			apply: func() { scene.Children = slices.Insert(scene.Children, idx, xmlkit.NewElement(noteElem)) }}
	}
	ni := notes[e.rng.Intn(len(notes))]
	note := scene.Children[ni]
	notePath := append(slices.Clone(scenePath), ni)
	if r < 0.85 {
		idx := e.rng.Intn(len(note.Children) + 1)
		text := e.words()
		return edit{doc: h.doc, kind: "insert_text",
			call:  func(d *natix.Document) error { return d.InsertText(notePath, idx, text) },
			apply: func() { note.Children = slices.Insert(note.Children, idx, xmlkit.NewText(text)) }}
	}
	if len(note.Children) == 0 || r < 0.92 {
		return edit{doc: h.doc, kind: "delete_note",
			call:  func(d *natix.Document) error { return d.DeleteNode(notePath) },
			apply: func() { scene.Children = slices.Delete(scene.Children, ni, ni+1) }}
	}
	ti := e.rng.Intn(len(note.Children))
	textPath := append(slices.Clone(notePath), ti)
	return edit{doc: h.doc, kind: "delete_text",
		call:  func(d *natix.Document) error { return d.DeleteNode(textPath) },
		apply: func() { note.Children = slices.Delete(note.Children, ti, ti+1) }}
}

func (e *editor) words() string {
	n := 3 + e.rng.Intn(6)
	w := make([]string, n)
	for i := range w {
		w[i] = noteWords[e.rng.Intn(len(noteWords))]
	}
	return strings.Join(w, " ")
}

// document returns the store handle for document d, opened once per
// open store outside any timed region.
func (e *editor) document(db *natix.DB, d int) (*natix.Document, error) {
	if h, ok := e.handle[d]; ok {
		return h, nil
	}
	h, err := db.Document(e.c.plays[d].name)
	if err != nil {
		return nil, err
	}
	e.handle[d] = h
	return h, nil
}

// prepare parses the mirrors of every hot document and opens their
// handles on db, so the timed loop does neither.
func (e *editor) prepare(db *natix.DB) error {
	if e.db != db {
		e.db, e.handle = db, map[int]*natix.Document{}
	}
	for _, h := range e.hot {
		if _, err := e.tree(h.doc); err != nil {
			return err
		}
		if _, err := e.document(db, h.doc); err != nil {
			return err
		}
	}
	return nil
}

// verify exports every edited document and compares it with its
// mirror. It returns one message per mismatch.
func (e *editor) verify(db *natix.DB) []string {
	var bad []string
	for d, root := range e.mirror {
		var got bytes.Buffer
		if err := db.ExportXML(e.c.plays[d].name, &got); err != nil {
			bad = append(bad, fmt.Sprintf("export %s: %v", e.c.plays[d].name, err))
			continue
		}
		if want := xmlkit.SerializeString(root); got.String() != want {
			bad = append(bad, fmt.Sprintf("export %s differs from its edit mirror (%d vs %d bytes)", e.c.plays[d].name, got.Len(), len(want)))
		}
	}
	return bad
}

// hotDocs reports which documents the editor edits.
func (e *editor) hotDocs() map[int]bool {
	hot := map[int]bool{}
	for _, h := range e.hot {
		hot[h.doc] = true
	}
	return hot
}
