package main

import (
	"path/filepath"
	"testing"

	"influcomm"
	"influcomm/internal/semiext"
)

func TestGenerateModels(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name  string
		model string
		out   string
	}{
		{"ba-text", "ba", "ba.txt"},
		{"ba-binary", "ba", "ba.bin"},
		{"gnm", "gnm", "gnm.txt"},
		{"planted", "planted", "planted.txt"},
		{"collab", "collab", "collab.txt"},
		{"edgefile", "ba", "ba.edges"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := filepath.Join(dir, c.out)
			if err := run(c.model, 200, 3, 400, 10, 8, 1, true, "", out, "v1"); err != nil {
				t.Fatalf("run: %v", err)
			}
			if filepath.Ext(out) == ".edges" {
				v, err := semiext.OpenView(out)
				if err != nil {
					t.Fatalf("reading edge file: %v", err)
				}
				defer v.Close()
				if v.NumVertices() != 200 {
					t.Errorf("edge file has %d vertices, want 200", v.NumVertices())
				}
				return
			}
			g, err := influcomm.LoadGraph(out)
			if err != nil {
				t.Fatalf("loading generated graph: %v", err)
			}
			if g.NumVertices() == 0 || g.NumEdges() == 0 {
				t.Error("generated graph is degenerate")
			}
		})
	}
}

func TestGenerateDatasetStandIn(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	out := filepath.Join(t.TempDir(), "email.edges")
	if err := run("", 0, 0, 0, 0, 0, 0, false, "email", out, "v1"); err != nil {
		t.Fatalf("dataset stand-in: %v", err)
	}
}

func TestGenerateErrors(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.txt")
	if err := run("nosuchmodel", 10, 2, 10, 2, 5, 1, false, "", out, "v1"); err == nil {
		t.Error("unknown model: want error")
	}
	if err := run("", 0, 0, 0, 0, 0, 0, false, "nosuchdataset", out, "v1"); err == nil {
		t.Error("unknown dataset: want error")
	}
	if err := run("ba", -5, 2, 0, 0, 0, 1, false, "", out, "v1"); err == nil {
		t.Error("negative n: want error")
	}
}

// TestGenerateV2EdgeFile: -format v2 writes the compressed layout, which
// the View detects; a bad format is an error.
func TestGenerateV2EdgeFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "g.edges")
	if err := run("planted", 0, 0, 0, 10, 12, 3, false, "", out, "v2"); err != nil {
		t.Fatalf("run: %v", err)
	}
	v, err := semiext.OpenView(out)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if v.Format() != semiext.FormatV2 {
		t.Errorf("written format v%d, want v2", v.Format())
	}
	if err := run("ba", 50, 3, 0, 0, 0, 1, false, "", out, "flat"); err == nil {
		t.Error("bad format: want error")
	}
}
