package vm

// MeshSources lets the external test package, which may import vmtest,
// share the in-package tests' source builder.
var MeshSources = meshSources
