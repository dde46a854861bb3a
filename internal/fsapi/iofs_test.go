package fsapi_test

// testing/fstest.TestFS is the standard library's io/fs conformance
// suite: it walks the tree, re-opens every file through every access
// path (Open, ReadDir, Glob, WalkDir), checks ReadDirFile paging, name
// validation, and that contents round-trip. Running it against the IOFS
// adapter over both memfs (the tmpfs stand-in) and AtomFS checks the
// adapter once and the FS implementations' Stat/Read/Readdir contracts
// twice.

import (
	"context"
	"io"
	iofs "io/fs"
	"testing"
	"testing/fstest"

	"repro/internal/atomfs"
	"repro/internal/fsapi"
	"repro/internal/memfs"
)

// buildTree populates fs with a small mixed tree and returns the file
// names TestFS must find (io/fs form, no leading slash).
func buildTree(ctx context.Context, t *testing.T, fs fsapi.FS) []string {
	t.Helper()
	dirs := []string{"/a", "/a/b", "/empty"}
	for _, d := range dirs {
		if err := fs.Mkdir(ctx, d); err != nil {
			t.Fatalf("mkdir %s: %v", d, err)
		}
	}
	files := map[string]string{
		"/hello.txt": "hello over io/fs\n",
		"/a/one":     "1",
		"/a/b/two":   "22",
		"/a/b/zero":  "",
	}
	var names []string
	for p, content := range files {
		if err := fs.Mknod(ctx, p); err != nil {
			t.Fatalf("mknod %s: %v", p, err)
		}
		if len(content) > 0 {
			if _, err := fs.Write(ctx, p, 0, []byte(content)); err != nil {
				t.Fatalf("write %s: %v", p, err)
			}
		}
		names = append(names, p[1:])
	}
	return names
}

func TestIOFSMemfs(t *testing.T) {
	ctx := context.Background()
	fs := memfs.New()
	expected := buildTree(ctx, t, fs)
	if err := fstest.TestFS(fsapi.NewIOFS(ctx, fs), expected...); err != nil {
		t.Fatal(err)
	}
}

func TestIOFSAtomFS(t *testing.T) {
	ctx := context.Background()
	fs := atomfs.New(atomfs.WithEpoch(), atomfs.WithPrefixCache())
	expected := buildTree(ctx, t, fs)
	if err := fstest.TestFS(fsapi.NewIOFS(ctx, fs), expected...); err != nil {
		t.Fatal(err)
	}
}

func TestIOFSSemantics(t *testing.T) {
	ctx := context.Background()
	fs := memfs.New()
	buildTree(ctx, t, fs)
	fsys := fsapi.NewIOFS(ctx, fs)

	if _, err := fsys.Open("nope"); !iofs.ValidPath("nope") || err == nil {
		t.Fatal("open of a missing file must fail")
	} else if pe := err.(*iofs.PathError); pe.Err != iofs.ErrNotExist {
		t.Fatalf("open missing: got %v, want fs.ErrNotExist", pe.Err)
	}
	if _, err := fsys.Open("/abs"); err == nil {
		t.Fatal("leading-slash names are invalid in io/fs")
	}

	data, err := iofs.ReadFile(fsys, "hello.txt")
	if err != nil || string(data) != "hello over io/fs\n" {
		t.Fatalf("ReadFile: %q, %v", data, err)
	}

	// ReaderAt: positional reads independent of the cursor.
	f, err := fsys.Open("hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ra, ok := f.(io.ReaderAt)
	if !ok {
		t.Fatal("regular files should implement io.ReaderAt")
	}
	buf := make([]byte, 5)
	if n, err := ra.ReadAt(buf, 6); err != nil || string(buf[:n]) != "over " {
		t.Fatalf("ReadAt: %q, %v", buf[:n], err)
	}

	// ReadDirFile paging: 2 entries, then the rest, then io.EOF.
	d, err := fsys.Open("a/b")
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	rd, ok := d.(iofs.ReadDirFile)
	if !ok {
		t.Fatal("directories must implement fs.ReadDirFile")
	}
	first, err := rd.ReadDir(1)
	if err != nil || len(first) != 1 || first[0].Name() != "two" {
		t.Fatalf("ReadDir(1): %v, %v", first, err)
	}
	rest, err := rd.ReadDir(10)
	if err != nil || len(rest) != 1 || rest[0].Name() != "zero" {
		t.Fatalf("ReadDir(10): %v, %v", rest, err)
	}
	if _, err := rd.ReadDir(1); err != io.EOF {
		t.Fatalf("exhausted ReadDir(1): %v, want io.EOF", err)
	}
}
