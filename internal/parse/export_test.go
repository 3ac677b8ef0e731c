package parse

// NestedSources exposes the nested-mode test programs to the external
// test package's differential test.
var NestedSources = nestedSources
