package cli

// Flow-spec construction and execution: NewFlowRun must build the owning
// binary's exact flag set, reject off-allowlist args with pinned one-line
// errors, and run every flow body to a finalized ledger record — the
// contract the charserved job service (internal/jobs) is built on.

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/telemetry"
)

func TestFlowNamesAndArgs(t *testing.T) {
	names := FlowNames()
	want := []string{"learn", "lot", "optimize", "shmoo", "table1"}
	if len(names) != len(want) {
		t.Fatalf("FlowNames() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("FlowNames() = %v, want %v", names, want)
		}
	}
	args := FlowArgs("shmoo")
	if len(args) != 5 || args[0] != "tdq-max" {
		t.Fatalf("FlowArgs(shmoo) = %v", args)
	}
	if FlowArgs("nope") != nil {
		t.Fatal("FlowArgs of unknown flow should be nil")
	}
}

func TestNewFlowRunValidation(t *testing.T) {
	cases := []struct {
		spec FlowSpec
		want string
	}{
		{FlowSpec{Flow: "frobnicate"}, `unknown flow "frobnicate"`},
		{FlowSpec{Flow: "shmoo", Args: map[string]string{"dies": "3"}}, `flow "shmoo" does not accept arg "dies"`},
		{FlowSpec{Flow: "learn", Args: map[string]string{"learn-tests": "many"}}, `arg learn-tests="many"`},
		{FlowSpec{Flow: "learn", Args: map[string]string{"weights": "w.json"}}, `does not accept arg "weights"`},
	}
	for _, tc := range cases {
		_, err := NewFlowRun(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("NewFlowRun(%+v): err %v, want substring %q", tc.spec, err, tc.want)
		}
	}
}

// TestFlowRunsFinalize runs every flow end to end at small sizes into a
// run ledger and checks each finalizes with a run ID and fingerprint, and
// that the same spec re-run (even at another parallelism) collides into
// the same record.
func TestFlowRunsFinalize(t *testing.T) {
	specs := []FlowSpec{
		{Flow: "learn", Seed: 7, Args: map[string]string{"learn-tests": "12"}},
		{Flow: "optimize", Seed: 3, Args: map[string]string{"learn-tests": "10"}},
		{Flow: "table1", Seed: 5, Args: map[string]string{"learn-tests": "10", "random-tests": "30"}},
		{Flow: "shmoo", Seed: 9, Args: map[string]string{"tests": "6", "vdd-min": "1.40"}},
		{Flow: "lot", Seed: 11, Args: map[string]string{"dies": "4", "wafers": "2", "guardband": "0.05"}},
	}
	runDir := t.TempDir()
	seen := map[string]string{}
	for _, spec := range specs {
		var firstID, firstFP string
		for _, par := range []int{1, 3} {
			fr, err := NewFlowRun(spec)
			if err != nil {
				t.Fatalf("NewFlowRun(%s): %v", spec.Flow, err)
			}
			if got := fr.Spec().Flow; got != spec.Flow {
				t.Fatalf("Spec().Flow = %q, want %q", got, spec.Flow)
			}
			fr.Common.Embedded = true
			fr.Common.Parallel = par
			fr.Common.RunDir = runDir
			var out bytes.Buffer
			if err := fr.Run(&out); err != nil {
				t.Fatalf("%s run (parallel %d): %v", spec.Flow, par, err)
			}
			id, fp := fr.Common.LastRun()
			if id == "" || fp == "" {
				t.Fatalf("%s: no ledger record (id %q, fp %q)", spec.Flow, id, fp)
			}
			if firstID == "" {
				firstID, firstFP = id, fp
			} else if id != firstID || fp != firstFP {
				t.Fatalf("%s: parallel %d minted %s/%s, want %s/%s", spec.Flow, par, id, fp, firstID, firstFP)
			}
		}
		seen[spec.Flow] = firstID
	}
	// Different flows must not collide.
	ids := map[string]bool{}
	for flow, id := range seen {
		if ids[id] {
			t.Fatalf("flow %s collided with another flow on run ID %s", flow, id)
		}
		ids[id] = true
	}
}

// TestLearnOnlyStopsBeforeOptimize pins the learn preset: the learn flow
// must not run the GA (its output reports the ensemble and stops).
func TestLearnOnlyStopsBeforeOptimize(t *testing.T) {
	fr, err := NewFlowRun(FlowSpec{Flow: "learn", Seed: 2, Args: map[string]string{"learn-tests": "10"}})
	if err != nil {
		t.Fatal(err)
	}
	fr.Common.Embedded = true
	var out bytes.Buffer
	if err := fr.Run(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if strings.Contains(text, "worst case") && strings.Contains(text, "generation") {
		t.Fatalf("learn flow appears to have run the optimization scheme:\n%s", text)
	}
	if !strings.Contains(text, "Tester totals") {
		t.Fatalf("learn flow did not print tester totals:\n%s", text)
	}
}

// TestFlowCancellation pins the cooperative-cancel contract: a CheckCancel
// that trips immediately aborts the flow with that error before any phase
// runs.
func TestFlowCancellation(t *testing.T) {
	for _, flow := range []string{"optimize", "shmoo", "lot"} {
		spec := FlowSpec{Flow: flow, Seed: 1}
		fr, err := NewFlowRun(spec)
		if err != nil {
			t.Fatal(err)
		}
		fr.Common.Embedded = true
		sentinel := errTest("stop right there")
		fr.Common.CheckCancel = func() error { return sentinel }
		var out bytes.Buffer
		if err := fr.Run(&out); err != sentinel { //nolint:errorlint // identity is the contract
			t.Fatalf("%s with tripped CheckCancel: err %v, want the sentinel", flow, err)
		}
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

// TestCharacterizeWritesArtifacts drives the characterize flow's
// post-optimization outputs: -weights and -db write their files, the
// database round-trips through core.LoadDatabaseFile, and -minimize and the
// fuzzy diagnosis both report.
func TestCharacterizeWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	weights, db := filepath.Join(dir, "w.json"), filepath.Join(dir, "db.json")
	fs := flag.NewFlagSet("characterize", flag.ContinueOnError)
	c := Register(fs)
	f := RegisterCharacterizeFlags(fs)
	if err := fs.Parse([]string{"-seed", "101", "-learn-tests", "20",
		"-minimize", "-weights", weights, "-db", db}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := RunCharacterize(c, f, &out); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{weights, db} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("artifact %s not written: %v", p, err)
		}
	}
	loaded, err := core.LoadDatabaseFile(db)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() == 0 {
		t.Error("persisted database empty")
	}
	for _, want := range []string{"diagnosis:", "minimized:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestFleetObserverFeedsPoolReport pins the CLI's one fleet observer: on a
// non-Embedded run every fleet stage lands both in the report's
// non-deterministic pool section and in nd_fleet_streams_total.
func TestFleetObserverFeedsPoolReport(t *testing.T) {
	fr, err := NewFlowRun(FlowSpec{Flow: "optimize", Seed: 3, Args: map[string]string{"learn-tests": "10"}})
	if err != nil {
		t.Fatal(err)
	}
	fr.Common.Parallel = 2
	fr.Common.MetricsPath = filepath.Join(t.TempDir(), "m.json")
	var tel *telemetry.Telemetry
	fr.Common.OnTelemetryStart = func(tt *telemetry.Telemetry) { tel = tt }
	if err := fr.Run(io.Discard); err != nil {
		t.Fatal(err)
	}
	rep := tel.Report(telemetry.Cost{})
	runs, streams := rep.NonDeterministic.Pool.Runs, rep.Metrics.Counters["nd_fleet_streams_total"]
	if runs <= 0 || runs != streams {
		t.Errorf("pool runs %d, nd_fleet_streams_total %d: want equal and > 0", runs, streams)
	}
}
