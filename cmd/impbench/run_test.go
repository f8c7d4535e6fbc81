package main

import (
	"strings"
	"testing"
)

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"-exp", "fig4,table5", "-runs", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.exp != "fig4,table5" || cfg.runs != 2 || cfg.paper {
		t.Fatalf("parsed %+v", cfg)
	}
	if _, err := parseFlags([]string{"-nope"}); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunStaticTables(t *testing.T) {
	var out strings.Builder
	if err := run(&config{exp: "table3,table5", seed: 1}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 3", "Table 5", "3363", "1920"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestRunUnknownExperiment: impbench runs the paper's tables, figures and
// ablations only — serving performance is the benchmark module's — so
// "serve" and "obs" are unknown like any other name, alone or beside a
// valid one, an unknown name is refused before anything runs, and the
// flags are the paper experiments' only.
func TestRunUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"figZZ", "serve", "obs", "table3,serve", "obs,table5"} {
		var out strings.Builder
		if err := run(&config{exp: exp, seed: 1}, &out); err == nil {
			t.Errorf("-exp %s accepted", exp)
		}
		if out.Len() != 0 {
			t.Errorf("-exp %s ran something before refusing:\n%s", exp, out.String())
		}
	}
	for _, flag := range []string{"-json", "-workers", "-procs", "-transports", "-window", "-leaves", "-tenants", "-dispatch-shards", "-gate"} {
		if _, err := parseFlags([]string{flag, "1"}); err == nil {
			t.Errorf("removed flag %s accepted", flag)
		}
	}
}

func TestRunSmallFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment run too slow for -short")
	}
	var out strings.Builder
	// A single tiny Dataset One run through the command path.
	if err := run(&config{exp: "table4", seed: 1}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table 4") || !strings.Contains(out.String(), "(paper)") {
		t.Fatalf("output malformed:\n%s", out.String())
	}
}

func TestParseCardsOverride(t *testing.T) {
	cfg, err := parseFlags([]string{"-exp", "fig4", "-cards", "100, 200"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.cards != "100, 200" {
		t.Fatalf("cards = %q", cfg.cards)
	}
	if err := run(&config{exp: "fig4", cards: "xyz", runs: 1, seed: 1}, &strings.Builder{}); err == nil {
		t.Fatal("bad -cards value accepted")
	}
}
