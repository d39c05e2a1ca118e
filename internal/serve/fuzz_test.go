package serve

import (
	"path/filepath"
	"testing"

	"biocoder"
)

// FuzzParseScript feeds BioScript sources, the untrusted input of every
// bfd compile request, to the parser and the CFG builder, which must never
// panic. A source that builds canonicalizes to the same key every time:
// the request-key memo relies on canonicalize being a pure function of the
// request.
func FuzzParseScript(f *testing.F) {
	scripts, err := filepath.Glob(filepath.Join("..", "assays", "scripts", "*.bio"))
	if err != nil || len(scripts) == 0 {
		f.Fatalf("corpus scripts: %v", err)
	}
	for _, path := range scripts {
		f.Add(readScript(f, filepath.Base(path)))
	}
	f.Fuzz(func(t *testing.T, src string) {
		bs, err := biocoder.ParseScript(src)
		if err != nil || src == "" { // an empty source is a missing one to bfd
			return
		}
		if _, err := bs.Build(); err != nil {
			return
		}
		req := &CompileRequest{Source: src}
		_, _, _, key, err := canonicalize(req)
		if err != nil {
			t.Fatalf("a source that builds does not canonicalize: %v", err)
		}
		if _, _, _, again, err := canonicalize(req); err != nil || again != key {
			t.Fatalf("canonicalized twice: %s then %s (%v)", key, again, err)
		}
	})
}
