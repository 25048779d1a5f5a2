// Command docscheck is the documentation gate `make docs-check` runs in
// CI. It enforces three invariants:
//
//   - Markdown hygiene: every relative link in the given markdown files
//     (and directories of them) must resolve to an existing file, and a
//     #fragment pointing into a markdown file must name a real heading
//     (GitHub anchor slugs). External links (with a URL scheme) are not
//     fetched — the gate must pass offline.
//
//   - Doc comments: every exported identifier in the given Go packages
//     must carry a doc comment (a grouped const/var/type block's doc
//     covers its members). The serving surface (package distmincut,
//     internal/service and internal/gateway) is gated so the API
//     reference in docs/ never drifts ahead of godoc.
//
//   - Markdown citations: every *.md name a Go comment anywhere in the
//     module tree mentions must exist in the repository (matched by
//     base name, so "README.md" and "docs/ARCHITECTURE.md" both
//     resolve), so code never cites a document that is gone.
//
// Usage:
//
//	docscheck [-pkgs .,./internal/service,./internal/gateway] [markdown files or dirs...]
//
// With no positional arguments it checks README.md, ROADMAP.md, and
// docs/. Exit status 1 means violations were printed, 2 a usage or I/O
// error.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	os.Exit(run())
}

func run() int {
	pkgs := flag.String("pkgs", ".,./internal/service,./internal/gateway", "comma-separated Go package directories to doc-lint")
	flag.Parse()

	targets := flag.Args()
	if len(targets) == 0 {
		targets = []string{"README.md", "ROADMAP.md", "docs"}
	}
	files, err := collectMarkdown(targets)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		return 2
	}

	var problems []string
	for _, f := range files {
		ps, err := checkLinks(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			return 2
		}
		problems = append(problems, ps...)
	}
	for _, dir := range strings.Split(*pkgs, ",") {
		if dir = strings.TrimSpace(dir); dir == "" {
			continue
		}
		ps, err := lintDocs(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			return 2
		}
		problems = append(problems, ps...)
	}
	ps, err := checkMDCitations(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		return 2
	}
	problems = append(problems, ps...)

	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		return 1
	}
	fmt.Printf("docscheck: %d markdown file(s) and packages [%s] clean\n", len(files), *pkgs)
	return 0
}

// collectMarkdown expands the targets into a list of .md files,
// walking directories.
func collectMarkdown(targets []string) ([]string, error) {
	var files []string
	for _, t := range targets {
		info, err := os.Stat(t)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			files = append(files, t)
			continue
		}
		err = filepath.WalkDir(t, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".md") {
				files = append(files, path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return files, nil
}

// linkRE matches inline markdown links [text](target) and
// [text](target "title"); images share the syntax and are checked too.
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// fenceRE matches fenced code block delimiters.
var fenceRE = regexp.MustCompile("^\\s*```")

// checkLinks verifies every relative link in one markdown file.
func checkLinks(file string) ([]string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var problems []string
	dir := filepath.Dir(file)
	inFence := false
	for ln, line := range strings.Split(string(data), "\n") {
		if fenceRE.MatchString(line) {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkRE.FindAllStringSubmatch(line, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
				continue // external: not fetched, the gate runs offline
			}
			path, frag, _ := strings.Cut(target, "#")
			if path == "" {
				// Same-file fragment.
				if ok, err := hasAnchor(file, frag); err != nil {
					return nil, err
				} else if !ok {
					problems = append(problems, fmt.Sprintf("%s:%d: broken anchor #%s", file, ln+1, frag))
				}
				continue
			}
			resolved := filepath.Join(dir, path)
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s:%d: broken link %s", file, ln+1, target))
				continue
			}
			if frag != "" && strings.HasSuffix(path, ".md") {
				if ok, err := hasAnchor(resolved, frag); err != nil {
					return nil, err
				} else if !ok {
					problems = append(problems, fmt.Sprintf("%s:%d: broken anchor %s", file, ln+1, target))
				}
			}
		}
	}
	return problems, nil
}

// hasAnchor reports whether the markdown file has a heading whose
// GitHub anchor slug equals frag.
func hasAnchor(file, frag string) (bool, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return false, err
	}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if fenceRE.MatchString(line) {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		heading := strings.TrimLeft(line, "#")
		if slugify(heading) == strings.ToLower(frag) {
			return true, nil
		}
	}
	return false, nil
}

// slugify reproduces GitHub's heading-anchor slugs: lowercase, spaces
// to dashes, punctuation dropped (backticks, parens, commas, ...).
func slugify(heading string) string {
	s := strings.ToLower(strings.TrimSpace(heading))
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		case r == ' ':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// mdNameRE matches a markdown file name cited in prose.
var mdNameRE = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// checkMDCitations walks the tree under root and reports every *.md
// name cited in a Go comment whose base name matches no markdown file
// in the tree. Hidden directories and build output are skipped.
func checkMDCitations(root string) ([]string, error) {
	have := map[string]bool{}
	var goFiles []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".md":
			have[d.Name()] = true
		case ".go":
			goFiles = append(goFiles, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var problems []string
	fset := token.NewFileSet()
	for _, path := range goFiles {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, name := range mdNameRE.FindAllString(c.Text, -1) {
					if !have[filepath.Base(name)] {
						problems = append(problems, fmt.Sprintf("%s:%d: comment cites %s, which does not exist",
							path, fset.Position(c.Pos()).Line, name))
					}
				}
			}
		}
	}
	return problems, nil
}

// lintDocs parses one package directory and reports every exported
// identifier without a doc comment. Test files are skipped; struct
// fields and interface methods are not gated (the enclosing type's doc
// is the unit of documentation there).
func lintDocs(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgMap, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, pkg := range pkgMap {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && d.Doc == nil && exportedRecv(d) {
						kind := "function"
						if d.Recv != nil {
							kind = "method"
						}
						report(d.Pos(), kind, d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && s.Doc == nil && d.Doc == nil {
								report(s.Pos(), "type", s.Name.Name)
							}
						case *ast.ValueSpec:
							if s.Doc != nil || s.Comment != nil || d.Doc != nil {
								continue
							}
							for _, n := range s.Names {
								if n.IsExported() {
									report(n.Pos(), "const/var", n.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return problems, nil
}

// exportedRecv reports whether a function's receiver (if any) is an
// exported type — methods on unexported types are not part of the API
// surface.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.IsExported()
	}
	return true
}
