package psgc

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"psgc/internal/names"
)

// captureProbe binds a pair to stem after lets filler lets and projects
// it. The filler lets move the cps supply's counter; when the compile
// passes each counted from 0, some counts made cps's renamed stem$N equal
// a binder translate introduced in the same scope, which captured it.
func captureProbe(stem string, lets int) string {
	var b strings.Builder
	b.WriteString("fun f (x : int) : int =")
	for i := 0; i < lets; i++ {
		fmt.Fprintf(&b, " let y%d = x + %d in", i, i)
	}
	fmt.Fprintf(&b, " let %[1]s = (x, (x, x)) in fst %[1]s + fst (snd %[1]s)\ndo f 3", stem)
	return b.String()
}

// checkHygienic compiles src for col, runs it at a capacity small enough
// to collect, and requires the reference value; with coCheck the run is
// co-stepped against the substitution oracle and must not diverge.
func checkHygienic(t *testing.T, src string, col Collector, coCheck bool) {
	t.Helper()
	want, err := Interpret(src)
	if err != nil {
		t.Fatalf("reference: %v\n%s", err, src)
	}
	c, err := Compile(src, col)
	if err != nil {
		t.Fatalf("%s: compile: %v\n%s", col, err, src)
	}
	opts := RunOptions{Capacity: 4}
	if coCheck {
		opts.Engine = EngineCoChecked
	}
	res, err := c.Run(opts)
	if err != nil {
		t.Fatalf("%s: run: %v\n%s", col, err, src)
	}
	if res.Divergence != nil {
		t.Fatalf("%s: co-check diverged: %v\n%s", col, *res.Divergence, src)
	}
	if res.Value != want {
		t.Fatalf("%s: value %d, reference %d\n%s", col, res.Value, want, src)
	}
}

// TestCompilePassesDoNotCaptureNames pins the compile pipeline's
// hygiene: cps, closconv and translate draw from one name supply, so a
// binder a later pass introduces never captures a renamed source binder.
// The listed probes each failed to typecheck when every pass had its own
// supply, and run co-checked; the full scan over every pass stem (2,880
// programs, compiled, run and compared with Interpret) runs without
// -short.
func TestCompilePassesDoNotCaptureNames(t *testing.T) {
	probes := []struct {
		stem string
		lets int
		col  Collector
	}{
		{"d", 7, Basic},
		{"d", 12, Forwarding},
		{"d", 20, Generational},
		{"s", 13, Forwarding},
		{"xp", 22, Generational},
	}
	for _, p := range probes {
		checkHygienic(t, captureProbe(p.stem, p.lets), p.col, true)
	}
	// A source binder spelled like a fresh name is renamed like any other.
	for _, col := range allCollectors {
		checkHygienic(t, captureProbe("d$9", 7), col, true)
		checkHygienic(t, captureProbe("d$9", 0), col, true)
	}
	if testing.Short() {
		return
	}
	for _, stem := range names.PassStems {
		for lets := 0; lets < 40; lets++ {
			for _, col := range allCollectors {
				checkHygienic(t, captureProbe(string(stem), lets), col, false)
			}
		}
	}
}

// TestPassStemsListsEveryPassBinder keeps names.PassStems in step with
// the passes: the stems cps, closconv and translate ask their supply for
// are exactly the listed ones.
func TestPassStemsListsEveryPassBinder(t *testing.T) {
	fresh := regexp.MustCompile(`[fF]resh\("([^"]+)"\)`)
	var got []string
	for _, file := range []string{
		"internal/cps/cps.go",
		"internal/closconv/closconv.go",
		"internal/translate/translate.go",
	} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range fresh.FindAllStringSubmatch(string(src), -1) {
			got = append(got, m[1])
		}
	}
	var want []string
	for _, stem := range names.PassStems {
		want = append(want, string(stem))
	}
	slices.Sort(got)
	slices.Sort(want)
	if got = slices.Compact(got); !slices.Equal(got, want) {
		t.Errorf("the passes introduce stems %v; names.PassStems lists %v", got, want)
	}
}
