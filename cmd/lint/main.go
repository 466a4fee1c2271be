// Command lint runs the repository's static-analysis suite
// (internal/analysis) over the module and reports findings.
//
// Usage:
//
//	go run ./cmd/lint ./...            # lint the whole module (text output)
//	go run ./cmd/lint -json ./...      # flat JSON findings
//	go run ./cmd/lint -sarif ./...     # SARIF 2.1.0 (CI code-scanning)
//	go run ./cmd/lint -run maprange,parfold  # only these analyzers
//	go run ./cmd/lint -list            # describe the analyzers and exit
//
// The package pattern is accepted for familiarity but the suite always
// loads the full module containing the working directory: the analyzers
// are cheap, and cross-package invariants (lock types, injected RNGs) only
// hold if every package is checked together.
//
// Exit status: 0 clean, 1 findings reported (in every output format), 2
// load or usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	sarifOut := fs.Bool("sarif", false, "emit findings as SARIF 2.1.0")
	list := fs.Bool("list", false, "list the analyzers and their docs, then exit")
	root := fs.String("root", ".", "directory inside the module to lint")
	runNames := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := analysis.All()
	if *runNames != "" {
		var unknown []string
		analyzers, unknown = analysis.ByNames(*runNames)
		if len(unknown) > 0 {
			fmt.Fprintf(os.Stderr, "lint: unknown analyzer(s): %s (see -list)\n", strings.Join(unknown, ", "))
			return 2
		}
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "lint: -json and -sarif are mutually exclusive")
		return 2
	}

	loader, err := analysis.NewLoader(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		return 2
	}
	pkgs, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "lint:", err)
		return 2
	}
	findings := toFindings(analysis.Run(pkgs, analyzers), loader.ModuleRoot())

	switch {
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "lint:", err)
			return 2
		}
	case *sarifOut:
		if err := writeSARIF(os.Stdout, findings, analyzers); err != nil {
			fmt.Fprintln(os.Stderr, "lint:", err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
		if len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "lint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		}
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}
