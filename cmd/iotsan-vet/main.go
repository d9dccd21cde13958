// Command iotsan-vet runs the iotsan analyzer suite (dirtymark,
// readmark, recyclelive, digestfunnel, atomicpad — see
// internal/analysis) over Go packages. It supports two modes:
//
//	iotsan-vet [packages]              standalone; defaults to ./...
//	go vet -vettool=$(which iotsan-vet) ./...
//
// In standalone mode it shells out to `go list -export -deps` and
// type-checks each target package against the compiler's export data,
// so no source re-compilation of dependencies is needed. In vettool
// mode it speaks the go vet unit-checker protocol: it answers
// `-V=full` with a version line, `-flags` with an empty JSON flag
// list, and otherwise treats each argument as a vet.cfg file describing
// one package to analyze.
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

const version = "iotsan-vet version iotsan-1.0"

func main() {
	args := os.Args[1:]
	for _, a := range args {
		switch {
		case a == "-V=full" || a == "-V":
			// go vet fingerprints the tool for its action cache.
			fmt.Println(version)
			return
		case a == "-flags":
			// We declare no analyzer flags.
			fmt.Println("[]")
			return
		}
	}
	if len(args) > 0 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runVetTool(args))
	}
	os.Exit(runStandalone(args))
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

// --- vettool mode (go vet unit-checker protocol) ---

// vetConfig mirrors the JSON go vet writes for each package unit.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runVetTool(cfgPaths []string) int {
	exit := 0
	for _, cfgPath := range cfgPaths {
		data, err := os.ReadFile(cfgPath)
		if err != nil {
			fatalf("reading %s: %v", cfgPath, err)
		}
		var cfg vetConfig
		if err := json.Unmarshal(data, &cfg); err != nil {
			fatalf("parsing %s: %v", cfgPath, err)
		}
		// go vet insists on a .vetx facts file for every unit, even
		// ones we do not analyze; an empty file satisfies it.
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
				fatalf("writing %s: %v", cfg.VetxOutput, err)
			}
		}
		if cfg.VetxOnly || !analyzable(cfg) {
			continue
		}
		diags, err := analyzeUnit(cfg)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				continue
			}
			fatalf("%s: %v", cfg.ImportPath, err)
		}
		if len(diags) > 0 {
			printDiags(diags)
			exit = 2
		}
	}
	return exit
}

// analyzable filters to the units the contracts apply to: real (non
// test-variant) packages of this module.
func analyzable(cfg vetConfig) bool {
	if strings.Contains(cfg.ImportPath, " [") || strings.HasSuffix(cfg.ImportPath, ".test") {
		return false // test variant or synthesized test main
	}
	return len(cfg.GoFiles) > 0
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

func analyzeUnit(cfg vetConfig) ([]analysis.Diagnostic, error) {
	var files []string
	for _, f := range cfg.GoFiles {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		if !filepath.IsAbs(f) {
			f = filepath.Join(cfg.Dir, f)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", exportLookup(cfg.ImportMap, cfg.PackageFile))
	loader := analysis.NewLoader(fset, imp)
	pkg, err := loader.LoadFiles(cfg.ImportPath, files)
	if err != nil {
		return nil, err
	}
	return analysis.Run(pkg, analysis.Analyzers())
}

// --- standalone mode ---

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

func runStandalone(patterns []string) int {
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
