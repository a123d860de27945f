package main

import "testing"

func TestParseScheme(t *testing.T) {
	cases := map[string]bool{
		"baseline": true, "v1": true, "v2": true,
		"": false, "v3": false, "RPoLv1": false,
	}
	for in, ok := range cases {
		_, err := parseScheme(in)
		if ok && err != nil {
			t.Errorf("parseScheme(%q) = %v", in, err)
		}
		if !ok && err == nil {
			t.Errorf("parseScheme(%q) accepted", in)
		}
	}
}

func TestRunSmallSimulation(t *testing.T) {
	if err := run("resnet18-cifar10", "v2", 3, 0.34, 0, 1, 10, false, 1, "", false, nil, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	if err := run("resnet18-cifar10", "v9", 3, 0, 0, 1, 10, false, 1, "", false, nil, false); err == nil {
		t.Error("bad scheme accepted")
	}
	if err := run("unknown-task", "v1", 3, 0, 0, 1, 10, false, 1, "", false, nil, false); err == nil {
		t.Error("unknown task accepted")
	}
	if err := run("resnet18-cifar10", "v1", 0, 0, 0, 1, 10, false, 1, "", false, nil, false); err == nil {
		t.Error("zero workers accepted")
	}
	if err := run("resnet18-cifar10", "v1", 3, 0, 0, 1, 10, false, 1, "", true, nil, false); err == nil {
		t.Error("resume without journal accepted")
	}
}

func TestRunJournaledResume(t *testing.T) {
	dir := t.TempDir()
	// First run seals one epoch into the journal; the resumed run picks up
	// from it and finishes the second.
	if err := run("resnet18-cifar10", "v2", 2, 0, 0, 1, 6, false, 1, dir, false, nil, false); err != nil {
		t.Fatal(err)
	}
	if err := run("resnet18-cifar10", "v2", 2, 0, 0, 2, 6, false, 1, dir, true, nil, false); err != nil {
		t.Fatal(err)
	}
}
