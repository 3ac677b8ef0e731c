// Package corpus embeds a set of hand-written, realistically shaped
// programs — arithmetic kernels, a state machine, a table interpreter —
// used as additional workloads for the optimality experiments and for
// regression tests beyond the paper's own figures. All programs terminate
// on every input (loops are counter- or fuel-bounded).
package corpus

import (
	"embed"
	"sort"
	"strings"

	"assignmentmotion/internal/ir"
	"assignmentmotion/internal/parse"
)

//go:embed fg/*.fg
var files embed.FS

//go:embed fun/*.fg
var funFiles embed.FS

// Names returns the available program names, sorted.
func Names() []string {
	entries, err := files.ReadDir("fg")
	if err != nil {
		panic(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, strings.TrimSuffix(e.Name(), ".fg"))
	}
	sort.Strings(out)
	return out
}

// Source returns the .fg source text of the named program.
func Source(name string) string {
	data, err := files.ReadFile("fg/" + name + ".fg")
	if err != nil {
		panic("corpus: unknown program " + name)
	}
	return string(data)
}

// Load parses the named program into a fresh graph.
func Load(name string) *ir.Graph {
	data, err := files.ReadFile("fg/" + name + ".fg")
	if err != nil {
		panic("corpus: unknown program " + name)
	}
	g, err := parse.Parse(string(data))
	if err != nil {
		panic("corpus: " + name + ": " + err.Error())
	}
	return g
}

// FunNames returns the typed front-end program names ("fn_*"), sorted.
// These live beside the flow-graph corpus but in their own dialect, so
// Names()/Load() callers that expect .fg syntax never see them.
func FunNames() []string {
	entries, err := funFiles.ReadDir("fun")
	if err != nil {
		panic(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, strings.TrimSuffix(e.Name(), ".fg"))
	}
	sort.Strings(out)
	return out
}

// FunSource returns the typed front-end source of the named program.
func FunSource(name string) string {
	data, err := funFiles.ReadFile("fun/" + name + ".fg")
	if err != nil {
		panic("corpus: unknown fun program " + name)
	}
	return string(data)
}

// LoadFun parses and lowers the named typed front-end program into a
// fresh flow graph (calls inlined, expressions decomposed).
func LoadFun(name string) *ir.Graph {
	g, err := parse.ParseFun(FunSource(name))
	if err != nil {
		panic("corpus: " + name + ": " + err.Error())
	}
	return g
}
