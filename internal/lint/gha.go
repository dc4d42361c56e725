package lint

import (
	"path/filepath"
	"strconv"
	"strings"
)

// GHALine formats a diagnostic as a GitHub Actions problem-matcher command
// (::error file=...) so CI log lines become pull-request annotations.
func GHALine(root string, d Diagnostic) string {
	var b strings.Builder
	b.WriteString("::error file=")
	b.WriteString(ghaEscapeProp(relFile(root, d.Pos.Filename)))
	b.WriteString(",line=")
	b.WriteString(strconv.Itoa(d.Pos.Line))
	b.WriteString(",col=")
	b.WriteString(strconv.Itoa(d.Pos.Column))
	b.WriteString(",title=")
	b.WriteString(ghaEscapeProp(d.Check))
	b.WriteString("::")
	b.WriteString(ghaEscapeData(d.Message))
	return b.String()
}

// relFile renders a diagnostic file path relative to root when it sits
// underneath it.
func relFile(root, name string) string {
	if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(name)
}

// ghaEscapeData escapes the message payload of a workflow command.
func ghaEscapeData(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// ghaEscapeProp escapes a workflow command property value.
func ghaEscapeProp(s string) string {
	s = ghaEscapeData(s)
	s = strings.ReplaceAll(s, ":", "%3A")
	s = strings.ReplaceAll(s, ",", "%2C")
	return s
}
