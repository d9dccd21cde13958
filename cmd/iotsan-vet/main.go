// Command iotsan-vet runs the iotsan analyzer suite (dirtymark,
// readmark, recyclelive, digestfunnel, atomicpad — see
// internal/analysis) over Go packages:
//
//	iotsan-vet [packages]              defaults to ./...
//
// It shells out to `go list -export -deps` and type-checks each target
// package against the compiler's export data, so no source
// re-compilation of dependencies is needed.
//
// The analyzers enforce production-code contracts; _test.go files and
// test-variant packages are intentionally not analyzed (tests exercise
// the runtime oracles instead).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"iotsan/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "iotsan-vet: "+format+"\n", a...)
	os.Exit(2)
}

func printDiags(diags []analysis.Diagnostic) {
	cwd, _ := os.Getwd()
	for _, d := range diags {
		pos := d.Pos
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				pos.Filename = rel
			}
		}
		fmt.Fprintf(os.Stderr, "%s: %s: %s\n", pos, d.Analyzer, d.Message)
	}
}

// exportLookup builds a gc-importer lookup over an import map and an
// import-path→export-data-file map.
func exportLookup(importMap, packageFile map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := packageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
}

// listPackage is the subset of `go list -json` output we consume.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	ImportMap  map[string]string
}

func run(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		fatalf("go list: %v", err)
	}
	var targets []listPackage
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err != nil {
			if err == io.EOF {
				break
			}
			fatalf("decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && p.Name != "" && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}
	exit := 0
	for _, p := range targets {
		files := make([]string, 0, len(p.GoFiles))
		for _, f := range p.GoFiles {
			files = append(files, filepath.Join(p.Dir, f))
		}
		fset := token.NewFileSet()
		imp := importer.ForCompiler(fset, "gc", exportLookup(p.ImportMap, exports))
		loader := analysis.NewLoader(fset, imp)
		pkg, err := loader.LoadFiles(p.ImportPath, files)
		if err != nil {
			fatalf("%s: %v", p.ImportPath, err)
		}
		diags, err := analysis.Run(pkg, analysis.Analyzers())
		if err != nil {
			fatalf("%s: %v", p.ImportPath, err)
		}
		if len(diags) > 0 {
			printDiags(diags)
			exit = 1
		}
	}
	return exit
}
