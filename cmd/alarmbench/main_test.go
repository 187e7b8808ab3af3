package main

import (
	"strings"
	"testing"
)

func TestFmtCount(t *testing.T) {
	tests := []struct {
		in   uint64
		want string
	}{
		{0, "0"},
		{9999, "9999"},
		{10_000, "10.0k"},
		{246_200, "246.2k"},
		{9_999_999, "10000.0k"},
		{10_000_000, "10.0M"},
		{36_000_000, "36.0M"},
	}
	for _, tt := range tests {
		if got := fmtCount(tt.in); got != tt.want {
			t.Errorf("fmtCount(%d) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestWorkloadScales(t *testing.T) {
	for _, scale := range []string{"small", "medium", "full"} {
		cfg, err := workload(options{scale: scale, seed: 1}, -1)
		if err != nil {
			t.Fatalf("%s: %v", scale, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s config invalid: %v", scale, err)
		}
	}
	if _, err := workload(options{scale: "galactic"}, -1); err == nil {
		t.Error("unknown scale accepted")
	}
	// Public fraction override applies.
	cfg, _ := workload(options{scale: "small", seed: 1}, 0.2)
	if cfg.PublicFraction != 0.2 {
		t.Errorf("PublicFraction = %v", cfg.PublicFraction)
	}
	// -1 keeps the default.
	cfg, _ = workload(options{scale: "small", seed: 1}, -1)
	if cfg.PublicFraction != 0.10 {
		t.Errorf("default PublicFraction = %v", cfg.PublicFraction)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"no-such-figure"}); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("err = %v", err)
	}
	if err := run([]string{}); err == nil {
		t.Error("no experiment accepted")
	}
}

func TestAllSelectsEveryExperiment(t *testing.T) {
	all, err := selectExperiments([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(experiments) {
		t.Fatalf("all selects %d experiments, want %d", len(all), len(experiments))
	}
	seen := map[string]bool{}
	for i, e := range experiments {
		if all[i].name != e.name {
			t.Errorf("all[%d] = %s, want %s", i, all[i].name, e.name)
		}
		if seen[e.name] {
			t.Errorf("experiment %s listed twice", e.name)
		}
		seen[e.name] = true
		if one, err := selectExperiments([]string{e.name}); err != nil || len(one) != 1 || one[0].name != e.name {
			t.Errorf("selecting %s: %v, %v", e.name, one, err)
		}
	}
}

func TestRunFig1b(t *testing.T) {
	// fig1b is pure computation; it must succeed instantly at any scale.
	if err := run([]string{"-scale", "small", "fig1b"}); err != nil {
		t.Fatal(err)
	}
}
