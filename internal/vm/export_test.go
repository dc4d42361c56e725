package vm

// Corpus exposes the package's test corpus to the external test package,
// which checks it against difftest's reference interpreter.
var Corpus = corpus
