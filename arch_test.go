package coconut

// The structural rules, stated on syntax: each walks the module's non-test
// Go files outside bench/ with go/parser and fails on a declaration of a
// design that was deleted, or on a call where it may not be made. Run one
// with go test -run 'TestArch/<rule>' .

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// archDecl is one declared identifier: the package directory of its file
// ("." for the root package), the name — of a function or a method, a type,
// a constant, a variable, a struct field or an interface method — and where
// it is declared.
type archDecl struct {
	dir, name string
	pos       token.Position
}

// archDecls returns every identifier the module's non-test Go files outside
// bench/ declare at top level, and the fields and interface methods of their
// types; and every qualified selector they use ("pkg.Name", an identifier
// and the name it selects).
func archDecls(t *testing.T) (out, uses []archDecl) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "bench" || d.Name() == "testdata" || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		add := func(id *ast.Ident) {
			out = append(out, archDecl{dir: dir, name: id.Name, pos: fset.Position(id.Pos())})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok {
					uses = append(uses, archDecl{dir: dir, name: x.Name + "." + sel.Sel.Name, pos: fset.Position(sel.Pos())})
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				add(decl.Name)
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name)
						var fields *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						}
						if fields != nil {
							for _, field := range fields.List {
								for _, name := range field.Names {
									add(name)
								}
							}
						}
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, uses
}

func TestArch(t *testing.T) {
	decls, uses := archDecls(t)

	// A tree is the one leaf-run index: Coconut-Trie answered exactly as a
	// tree over the same records, and its type, prefix-cut leaf directory,
	// manifest layout, variant and constructors are gone. No declaration of
	// them may grow back, and no exported name outside the iSAX baseline
	// (internal/isax and its prefix trie, internal/trie) may name a trie but
	// the shims bench/e2e still calls (ROADMAP.md item 14 deletes them).
	t.Run("one-leaf-run-index", func(t *testing.T) {
		retired := map[string]string{ // name → the package that may not declare it ("" for any)
			"trieStarts": "", "bitAt": "", "TrieLayout": "", "TrieVariant": "", "VariantTrie": "",
			"BuildTrie": "internal/core", "OpenTrie": "internal/core", "TrieIndex": "internal/core",
			"Trie": ".",
		}
		shims := map[string]bool{
			".:TrieIndex": true, ".:BuildTrieIndex": true, ".:OpenTrieIndex": true,
			"internal/server:NewTrieHandle": true,
		}
		for _, d := range decls {
			if dir, ok := retired[d.name]; ok && (dir == "" || dir == d.dir) {
				t.Errorf("%s: %s declared, a part of the retired Coconut-Trie", d.pos, d.name)
				continue
			}
			if ast.IsExported(d.name) && strings.Contains(d.name, "Trie") &&
				d.dir != "internal/isax" && d.dir != "internal/trie" && !shims[d.dir+":"+d.name] {
				t.Errorf("%s: %s declared, an exported trie name that is not a shim", d.pos, d.name)
			}
		}
	})

	// A tree is one dense sorted run whose leaves are its checksum blocks:
	// the leaf directory — its bulk-load packing and median splits, the leaf
	// capacity and fill factor that shaped it, the manifest's per-leaf
	// counts, and the retired trie variant the version-10 manifest still
	// decoded — is gone. The iSAX, R-tree and DSTree baselines keep leaf
	// capacities of their own.
	t.Run("no-leaf-directory", func(t *testing.T) {
		retired := map[string][]string{ // name → the packages that may not declare it (nil for any)
			"packedStarts": nil, "splitStarts": nil, "startsOf": nil, "leafOfOrd": nil, "retiredTrie": nil,
			"LeafCap":    {"internal/core", "internal/manifest", "internal/partition"},
			"leafCap":    {"internal/partition"},
			"FillFactor": {"internal/core", "internal/manifest", "internal/partition", "."},
			"LeafSize":   {"."},
			"Counts":     {"internal/manifest"},
		}
		for _, d := range decls {
			if dirs, ok := retired[d.name]; ok && (dirs == nil || slices.Contains(dirs, d.dir)) {
				t.Errorf("%s: %s declared, a part of the retired leaf directory", d.pos, d.name)
			}
		}
	})

	// An index has one manifest, committed by internal/partition alone: the
	// per-partition manifests, the parent naming them, and the commits each
	// tree and LSM made of its own are gone. No declaration of them may
	// grow back, and nothing else may call manifest.Commit.
	t.Run("one-manifest", func(t *testing.T) {
		retired := map[string]bool{
			"VariantPartitioned": true, "PartitionLayout": true, "commitParent": true, "LoadManifest": true,
			"writeManifest": true, "commitManifestLocked": true, "commitSnapshot": true,
		}
		for _, d := range decls {
			if retired[d.name] {
				t.Errorf("%s: %s declared, a part of the retired per-partition manifests", d.pos, d.name)
			}
		}
		for _, u := range uses {
			if u.name == "manifest.Commit" && u.dir != "internal/partition" && u.dir != "internal/manifest" {
				t.Errorf("%s: manifest.Commit called outside internal/partition", u.pos)
			}
		}
	})

	// The one use of unsafe is the summarization kernel's float64 view of
	// an encoded record, taken only where it reads what series.DecodeInto
	// would; everything else reads bytes through encoding/binary.
	t.Run("unsafe-confined", func(t *testing.T) {
		const kernel = "internal/summary/pointview.go"
		for _, u := range uses {
			if strings.HasPrefix(u.name, "unsafe.") && filepath.ToSlash(u.pos.Filename) != kernel {
				t.Errorf("%s: %s used outside %s", u.pos, u.name, kernel)
			}
		}
	})
}
