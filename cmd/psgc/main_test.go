package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const factorial = "fun fact (n : int) : int = if0 n then 1 else n * fact (n - 1)\ndo fact 6"

// runCLI drives the command dispatch and returns (exit code, stdout, stderr).
func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errOut strings.Builder
	code := run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRunInlineExpr(t *testing.T) {
	for _, gc := range []string{"basic", "forwarding", "generational"} {
		code, out, errOut := runCLI(t, "-gc", gc, "-capacity", "40", "-e", factorial)
		if code != 0 {
			t.Fatalf("-gc %s: exit %d, stderr %q", gc, code, errOut)
		}
		if strings.TrimSpace(out) != "720" {
			t.Errorf("-gc %s: output %q, want 720", gc, out)
		}
	}
}

func TestRunFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fact.src")
	if err := os.WriteFile(path, []byte(factorial), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := runCLI(t, path)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if strings.TrimSpace(out) != "720" {
		t.Errorf("output %q, want 720", out)
	}
}

func TestInterp(t *testing.T) {
	code, out, _ := runCLI(t, "-interp", "-e", "1 + 2 * 3")
	if code != 0 || strings.TrimSpace(out) != "7" {
		t.Errorf("exit %d output %q, want 0 and 7", code, out)
	}
}

func TestStats(t *testing.T) {
	code, out, errOut := runCLI(t, "-stats", "-capacity", "40", "-e",
		"fun build (n : int) : int =\n  if0 n then 0\n  else let p = (n, (n, n)) in fst p + build (n - 1)\ndo build 30")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if strings.TrimSpace(out) == "" {
		t.Errorf("no result printed")
	}
	for _, want := range []string{"collector:", "steps:", "collections:", "max live:"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("stats output missing %q:\n%s", want, errOut)
		}
	}
}

// TestPolicyAdaptiveCLI pins that -policy adaptive only decides: its value
// and stats are those of a static run at the decided collector and
// capacity (the program is big enough to collect at the capacity the
// policy picks).
func TestPolicyAdaptiveCLI(t *testing.T) {
	const src = "fun build (n : int) : int =\n  if0 n then 0\n  else let p = (n, (n, n)) in fst p + build (n - 1)\ndo build 1000"
	code, out, errOut := runCLI(t, "-policy", "adaptive", "-stats", "-capacity", "16", "-e", src)
	if code != 0 {
		t.Fatalf("adaptive: exit %d, stderr %q", code, errOut)
	}
	var col string
	var capacity int
	var rest []string
	for _, line := range strings.Split(errOut, "\n") {
		if strings.HasPrefix(line, "policy:") {
			if _, err := fmt.Sscanf(line, "policy:      adaptive -> %s at capacity %d", &col, &capacity); err != nil {
				t.Fatalf("policy line %q: %v", line, err)
			}
			continue
		}
		rest = append(rest, line)
	}
	if col == "" {
		t.Fatalf("no policy line in %q", errOut)
	}
	code, staticOut, staticErr := runCLI(t, "-gc", col, "-capacity", fmt.Sprint(capacity), "-stats", "-e", src)
	if code != 0 {
		t.Fatalf("static: exit %d, stderr %q", code, staticErr)
	}
	if out != staticOut || strings.Join(rest, "\n") != staticErr {
		t.Errorf("adaptive printed %q and\n%s\nstatic -gc %s -capacity %d printed %q and\n%s",
			out, errOut, col, capacity, staticOut, staticErr)
	}
}

// TestCheckedRun exercises -check (the per-step well-formedness re-check)
// on a small program.
func TestCheckedRun(t *testing.T) {
	code, out, errOut := runCLI(t, "-check", "-capacity", "32", "-e", "fun f (n : int) : int = if0 n then 0 else n + f (n - 1)\ndo f 5")
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if strings.TrimSpace(out) != "15" {
		t.Errorf("output %q, want 15", out)
	}
}

func TestShowForms(t *testing.T) {
	for _, form := range []string{"source", "cps", "clos", "gc"} {
		code, out, errOut := runCLI(t, "-show", form, "-e", factorial)
		if code != 0 {
			t.Fatalf("-show %s: exit %d, stderr %q", form, code, errOut)
		}
		if strings.TrimSpace(out) == "" {
			t.Errorf("-show %s printed nothing", form)
		}
	}
	if code, _, _ := runCLI(t, "-show", "nonsense", "-e", factorial); code == 0 {
		t.Errorf("-show nonsense should fail")
	}
}

func TestErrors(t *testing.T) {
	if code, _, errOut := runCLI(t, "-e", "fun f (x : int) : int = y\ndo 1"); code != 1 || errOut == "" {
		t.Errorf("ill-typed program: exit %d stderr %q, want 1 and a diagnostic", code, errOut)
	}
	if code, _, _ := runCLI(t, "-gc", "marksweep", "-e", "1"); code != 1 {
		t.Errorf("unknown collector: exit %d, want 1", code)
	}
	if code, _, _ := runCLI(t); code != 2 {
		t.Errorf("no input: exit %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "missing-file.src"); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
}

const buildChain = "fun build (n : int) : int =\n  if0 n then 0\n  else let p = (n, (n, n)) in fst p + build (n - 1)\ndo build 30"

// TestTrace asserts -trace prints the pipeline spans and per-collection
// timeline to stderr while the result stays alone on stdout.
func TestTrace(t *testing.T) {
	code, out, errOut := runCLI(t, "-trace", "-gc", "forwarding", "-capacity", "24", "-e", buildChain)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if strings.TrimSpace(out) != "465" {
		t.Errorf("stdout %q, want just the value 465", out)
	}
	for _, want := range []string{"-- compile pipeline", "typecheck", "-- timeline", "collection 1 [gc]", "copies"} {
		if !strings.Contains(errOut, want) {
			t.Errorf("trace output missing %q:\n%s", want, errOut)
		}
	}
}

// TestTraceJSON asserts -trace-json emits one machine-readable document
// with the result, pipeline spans, and timeline.
func TestTraceJSON(t *testing.T) {
	code, out, errOut := runCLI(t, "-trace-json", "-gc", "forwarding", "-capacity", "24", "-e", buildChain)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	var doc struct {
		Value    int `json:"value"`
		Steps    int `json:"steps"`
		Pipeline []struct {
			Phase string `json:"phase"`
		} `json:"pipeline"`
		Timeline struct {
			Allocs      int `json:"allocs"`
			Copies      int `json:"copies"`
			Collections []struct {
				Entry string `json:"entry"`
			} `json:"collections"`
		} `json:"timeline"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("-trace-json output does not parse: %v\n%s", err, out)
	}
	if doc.Value != 465 || doc.Steps == 0 {
		t.Errorf("value %d steps %d, want 465 and nonzero steps", doc.Value, doc.Steps)
	}
	if len(doc.Pipeline) != 6 {
		t.Errorf("%d pipeline spans, want 6 phases", len(doc.Pipeline))
	}
	if len(doc.Timeline.Collections) == 0 || doc.Timeline.Copies == 0 {
		t.Errorf("timeline records no collections: %+v", doc.Timeline)
	}
	for _, c := range doc.Timeline.Collections {
		if c.Entry != "gc" {
			t.Errorf("forwarding collection entry %q, want gc", c.Entry)
		}
	}
}

const buildChainSrc = "fun build (n : int) : int =\n  if0 n then 0\n  else let p = (n, (n, n)) in fst p + build (n - 1)\ndo build 30"

// TestCoCheckCleanCLI asserts a clean co-checked run behaves exactly like a
// plain one: the value on stdout, exit 0, nothing on stderr.
func TestCoCheckCleanCLI(t *testing.T) {
	code, out, errOut := runCLI(t, "-cocheck", "-capacity", "40", "-e", buildChainSrc)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errOut)
	}
	if strings.TrimSpace(out) != "465" {
		t.Errorf("output %q, want 465", out)
	}
	if strings.Contains(errOut, "divergence") {
		t.Errorf("clean co-checked run reported a divergence: %q", errOut)
	}
}

// TestCoCheckDivergenceCLI injects synthetic heap corruption under -cocheck:
// the oracle's (correct) value is still printed, but the divergence goes to
// stderr and the exit code is 1 so scripts notice — on a fresh run and on
// one resumed from a clean checkpoint alike.
func TestCoCheckDivergenceCLI(t *testing.T) {
	code, out, errOut := runCLI(t,
		"-chaos", "machine.corrupt=1", "-cocheck", "-capacity", "40", "-e", buildChainSrc)
	if code != 1 {
		t.Fatalf("exit %d (stderr %q), want 1", code, errOut)
	}
	if strings.TrimSpace(out) != "465" {
		t.Errorf("output %q, want the oracle's 465", out)
	}
	if !strings.Contains(errOut, "engine divergence") {
		t.Errorf("stderr %q does not report the divergence", errOut)
	}

	blob := filepath.Join(t.TempDir(), "clean.ckpt")
	code, _, errOut = runCLI(t, "-capacity", "40", "-checkpoint", blob, "-checkpoint-every", "200",
		"-checkpoint-stop", "-e", buildChainSrc)
	if code != 0 || !strings.Contains(errOut, "run paused at step 200") {
		t.Fatalf("clean checkpoint: exit %d, stderr %q", code, errOut)
	}
	code, out, errOut = runCLI(t, "-resume", blob, "-cocheck", "-chaos", "machine.corrupt=1")
	if code != 1 {
		t.Fatalf("resumed: exit %d (stderr %q), want 1", code, errOut)
	}
	if strings.TrimSpace(out) != "465" {
		t.Errorf("resumed output %q, want the oracle's 465", out)
	}
	if !strings.Contains(errOut, "engine divergence") {
		t.Errorf("resumed stderr %q does not report the divergence", errOut)
	}

	// The deferred uninstall ran: the next in-process invocation is clean.
	code, out, errOut = runCLI(t, "-capacity", "40", "-e", buildChainSrc)
	if code != 0 || strings.TrimSpace(out) != "465" {
		t.Errorf("chaos registry leaked across invocations: exit %d output %q stderr %q", code, out, errOut)
	}
}

// TestChaosSpecRejectedCLI pins the error path for malformed -chaos specs.
func TestChaosSpecRejectedCLI(t *testing.T) {
	code, _, errOut := runCLI(t, "-chaos", "no.such.point=1", "-e", "1 + 2")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errOut, "no.such.point") {
		t.Errorf("stderr %q does not name the bad point", errOut)
	}
}

// TestCheckpointResumeCLI pauses a run with -checkpoint/-checkpoint-stop,
// then resumes the blob on the *other* backend and checks the final value
// and step count match an uninterrupted run.
func TestCheckpointResumeCLI(t *testing.T) {
	src := "fun build (n : int) : int =\n  if0 n then 0\n  else let p = (n, (n, n)) in fst p + build (n - 1)\ndo build 60"
	code, out, errOut := runCLI(t, "-stats", "-capacity", "32", "-backend", "arena", "-e", src)
	if code != 0 {
		t.Fatalf("reference run: exit %d, stderr %q", code, errOut)
	}
	wantVal := strings.TrimSpace(out)
	wantSteps := ""
	for _, line := range strings.Split(errOut, "\n") {
		if strings.HasPrefix(line, "steps:") {
			wantSteps = strings.TrimSpace(strings.TrimPrefix(line, "steps:"))
		}
	}
	if wantSteps == "" {
		t.Fatalf("no steps line in stderr %q", errOut)
	}

	blob := filepath.Join(t.TempDir(), "run.ckpt")
	code, out, errOut = runCLI(t, "-capacity", "32", "-backend", "arena",
		"-checkpoint", blob, "-checkpoint-every", "500", "-checkpoint-stop", "-e", src)
	if code != 0 {
		t.Fatalf("checkpoint run: exit %d, stderr %q", code, errOut)
	}
	if strings.TrimSpace(out) != "" {
		t.Fatalf("paused run printed a value: %q", out)
	}
	if !strings.Contains(errOut, "run paused at step") {
		t.Fatalf("no pause notice in stderr %q", errOut)
	}
	if _, err := os.Stat(blob); err != nil {
		t.Fatalf("checkpoint blob missing: %v", err)
	}

	// Resume on the other backend: cross-backend migration from the CLI.
	code, out, errOut = runCLI(t, "-stats", "-backend", "map", "-resume", blob)
	if code != 0 {
		t.Fatalf("resume: exit %d, stderr %q", code, errOut)
	}
	if strings.TrimSpace(out) != wantVal {
		t.Errorf("resumed value %q, want %q", strings.TrimSpace(out), wantVal)
	}
	if !strings.Contains(errOut, "steps:       "+wantSteps) {
		t.Errorf("resumed steps differ: stderr %q, want steps %s", errOut, wantSteps)
	}
	for _, line := range []string{"collector:   basic", "reclaimed:", "max live:"} {
		if !strings.Contains(errOut, line) {
			t.Errorf("resumed -stats lacks %q: stderr %q", line, errOut)
		}
	}
}

// TestResumeRejectsCorruptBlob: a truncated blob fails with a clean error.
func TestResumeRejectsCorruptBlob(t *testing.T) {
	blob := filepath.Join(t.TempDir(), "bad.ckpt")
	if err := os.WriteFile(blob, []byte("psgcckp1 definitely not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errOut := runCLI(t, "-resume", blob)
	if code != 1 || !strings.Contains(errOut, "checkpoint") {
		t.Fatalf("exit %d, stderr %q; want failure mentioning checkpoint", code, errOut)
	}
}
