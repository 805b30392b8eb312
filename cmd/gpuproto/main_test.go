package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gputopo/internal/manifest"
)

// TestExampleRoundTrip feeds the document -example prints back through
// -experiment: it must read back field for field and run every configured
// algorithm (prototype mode, timelines on) without error.
func TestExampleRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "experiment.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := manifest.Write(f, sampleExperiment()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f, err = os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := manifest.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := sampleExperiment(); !reflect.DeepEqual(back, want) {
		t.Fatalf("example read back as %+v, want %+v", back, want)
	}

	if err := run(path, true); err != nil {
		t.Fatalf("-experiment on the -example document: %v", err)
	}
	if err := run(filepath.Join(t.TempDir(), "absent.json"), false); err == nil {
		t.Fatal("missing experiment file did not error")
	}
}
