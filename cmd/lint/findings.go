package main

import (
	"path/filepath"

	"repro/internal/analysis"
)

// finding is the external form of one diagnostic: flat fields, file path
// relative to the module root (slash-separated), so output is stable
// across checkouts.
type finding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

// toFindings converts diagnostics to findings, relativizing paths against
// the module root. Order is preserved (analysis.Run sorts by file, line,
// column, analyzer).
func toFindings(diags []analysis.Diagnostic, moduleRoot string) []finding {
	out := make([]finding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(moduleRoot, file); err == nil {
			file = filepath.ToSlash(rel)
		}
		out = append(out, finding{
			Analyzer: d.Analyzer,
			File:     file,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
	}
	return out
}
