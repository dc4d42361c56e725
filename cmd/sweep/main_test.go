package main

import (
	"encoding/csv"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
)

// TestCSVSinkQuoting delivers results whose string fields contain every CSV
// hazard — separators, quotes, newlines, leading spaces — and checks the
// emitted bytes parse back to the exact field values. encoding/csv owns the
// quoting; this pins that the sink never bypasses it.
func TestCSVSinkQuoting(t *testing.T) {
	hazards := []struct{ workload, selector string }{
		{"gzip", "net"},
		{"with,comma", "quo\"te"},
		{"new\nline", " leading space"},
		{`"fully quoted"`, "trailing space "},
	}
	var out strings.Builder
	sink, flush, err := newSink("csv", &out)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hazards {
		var r sweep.Result
		r.Index = i
		r.Job.Workload = h.workload
		r.Job.Selector = h.selector
		r.Report.TotalInstrs = uint64(1000 + i)
		r.Report.HitRate = 0.5
		sink.Deliver(r)
	}
	flush()

	rows, err := csv.NewReader(strings.NewReader(out.String())).ReadAll()
	if err != nil {
		t.Fatalf("emitted csv does not parse: %v\noutput:\n%s", err, out.String())
	}
	if len(rows) != 1+len(hazards) {
		t.Fatalf("got %d rows, want header + %d", len(rows), len(hazards))
	}
	if got, want := len(rows[0]), len(csvHeader); got != want {
		t.Fatalf("header has %d columns, want %d", got, want)
	}
	for i, h := range hazards {
		row := rows[1+i]
		if row[0] != h.workload || row[1] != h.selector {
			t.Errorf("row %d round-tripped to (%q, %q), want (%q, %q)",
				i, row[0], row[1], h.workload, h.selector)
		}
		if len(row) != len(csvHeader) {
			t.Errorf("row %d has %d columns, want %d", i, len(row), len(csvHeader))
		}
	}
}

// TestCSVRowMatchesHeader pins the row arity to the header so a column added
// to one but not the other fails fast.
func TestCSVRowMatchesHeader(t *testing.T) {
	if got, want := len(csvRow(sweep.Result{})), len(csvHeader); got != want {
		t.Fatalf("csvRow emits %d fields, header names %d", got, want)
	}
}

// TestCSVNamesEveryGridAxis requires a csv column for every parameter key of
// gridKeys, holding the value the grid set: without one, two rows that
// differ only on that axis read the same in every config column.
func TestCSVNamesEveryGridAxis(t *testing.T) {
	for _, k := range gridKeys {
		switch k.key {
		case "workloads", "selectors", "scale":
			continue // not parameter axes
		}
		col := slices.Index(csvHeader, k.key)
		if col < 0 {
			t.Errorf("grid key %q has no csv column", k.key)
			continue
		}
		g, err := parseGrid("workloads=gzip;selectors=net;" + k.key + "=12345")
		if err != nil {
			t.Fatal(err)
		}
		jobs := g.Jobs()
		if len(jobs) != 1 {
			t.Fatalf("%s: grid has %d jobs, want 1", k.key, len(jobs))
		}
		if got := csvRow(sweep.Result{Job: jobs[0]})[col]; got != "12345" {
			t.Errorf("csv column %q reads %q, want the grid's 12345", k.key, got)
		}
	}
}

// TestParseGridRejectsUnknownKey guards the -grid error path.
func TestParseGridRejectsUnknownKey(t *testing.T) {
	if _, err := parseGrid("bogus=1"); err == nil {
		t.Fatal("parseGrid accepted an unknown key")
	}
	if _, err := parseGrid("workloads=no-such-workload"); err == nil {
		t.Fatal("parseGrid accepted an unknown workload")
	}
}

// TestListSelectorsMatchRegistry pins -list to the selector registry: every
// name listed under "selectors:" builds, and every registered name is
// listed.
func TestListSelectorsMatchRegistry(t *testing.T) {
	var out strings.Builder
	printList(&out)
	_, section, ok := strings.Cut(out.String(), "selectors:\n")
	if !ok {
		t.Fatalf("-list prints no selectors section:\n%s", out.String())
	}
	listed := strings.Fields(section)
	for _, name := range listed {
		if _, err := sweep.NewSelector(name, core.DefaultParams()); err != nil {
			t.Errorf("-list names %q, which does not build: %v", name, err)
		}
	}
	for _, name := range sweep.SelectorNames() {
		if !slices.Contains(listed, name) {
			t.Errorf("-list omits registered selector %q", name)
		}
	}
}
