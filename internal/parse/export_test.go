package parse

// NestedSources exposes the nested-mode test programs to the external
// test package's differential test.
var NestedSources = nestedSources

// MaxNesting exposes the parser's nesting cap to the external tests.
const MaxNesting = maxNesting
