package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current command")

// TestMain runs the command itself, on a flag set free of the test
// binary's own flags, when runMain re-executes the test binary: the goldens
// exercise main's real flag handling and exits.
func TestMain(m *testing.M) {
	if os.Getenv("RPCVALET_RUN_MAIN") == "1" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGolden pins the command's surface: every flag's name, type and
// default (-h, usage prose excluded), the stdout and trace-JSONL bytes of
// small fixed runs, and the stderr and exit code of rejected invocations
// (the bad_* rows).
// Rewrite the goldens with go test -run TestGolden -update.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		trace bool // add -trace-jsonl and pin the file's bytes
		args  []string
	}{
		{"help", false, []string{"-h"}},
		{"racks_detail_csv", true, []string{"-nodes", "4", "-racks", "2", "-points", "2", "-measure", "2000", "-warmup", "100", "-detail", "-tail", "3", "-timeline", "-format", "csv", "-trace-sample", "16"}},
		{"flat_json", false, []string{"-points", "2", "-measure", "1000", "-warmup", "100", "-format", "json", "-policies", "jsq2,jsqfull", "-hop", "300", "-sample", "200", "-seed", "3"}},
		{"modulate", false, []string{"-points", "2", "-measure", "2000", "-warmup", "100", "-modulate", "pulse@20us+20us:x2", "-arrival", "mmpp2", "-epoch", "10us", "-timeline", "-policies", "rr,jsq2", "-racks", "2", "-global-sample", "100"}},
		{"degrade", false, []string{"-nodes", "4", "-racks", "2", "-points", "2", "-measure", "2000", "-warmup", "100", "-degrade", "0:x1.5;rack1:pause@20us+10us", "-global-policy", "jsq2", "-global-hop", "200", "-shards", "2", "-workers", "1"}},
		{"dispatch", false, []string{"-nodes", "4", "-points", "2", "-measure", "2000", "-warmup", "100", "-dispatch", "1x16,16x1,jbsq2,4x4:random2", "-workload", "herd", "-lo", "0.5", "-hi", "0.8", "-detail"}},
		{"mode", false, []string{"-nodes", "2", "-points", "1", "-measure", "1000", "-warmup", "100", "-mode", "sw", "-arrival", "det", "-policies", "bounded", "-shards", "2"}},
		{"bad_mode", false, []string{"-mode", "bogus"}},
		{"bad_policies", false, []string{"-policies", "jsq2,,rr", "-points", "2", "-measure", "500", "-warmup", "50"}},
		{"bad_shards", false, []string{"-shards", "-1"}},
		{"bad_dispatch_count", false, []string{"-dispatch", "1x16,16x1"}},
		{"bad_racks", false, []string{"-racks", "8", "-nodes", "4"}},
		{"bad_dispatch", false, []string{"-dispatch", "bogus"}},
		{"bad_workload", false, []string{"-workload", "bogus"}},
		{"bad_arrival", false, []string{"-arrival", "bogus"}},
		{"bad_modulate", false, []string{"-modulate", "bogus"}},
		{"bad_degrade", false, []string{"-degrade", "bogus"}},
		{"bad_epoch", false, []string{"-epoch", "bogus"}},
		{"bad_format", false, []string{"-format", "yaml", "-points", "2", "-measure", "500", "-warmup", "50"}},
		{"bad_hop_negative", false, []string{"-hop", "-5", "-points", "2", "-measure", "500", "-warmup", "50"}},
		{"bad_hop_nan", false, []string{"-hop", "NaN"}},
		{"bad_sample_inf", false, []string{"-sample", "Inf"}},
		{"bad_global_hop_huge", false, []string{"-racks", "2", "-global-hop", "1e30"}},
		{"bad_global_sample_negative", false, []string{"-global-sample", "-1", "-points", "2", "-measure", "500", "-warmup", "50"}},
		{"bad_global_policy", false, []string{"-global-policy", "bogus", "-points", "2", "-measure", "500", "-warmup", "50"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, tc.name, tc.trace, tc.args)
		})
	}
}

// checkGolden runs the command with args and compares its observable
// output with testdata/<name>.golden.
func checkGolden(t *testing.T, name string, trace bool, args []string) {
	t.Helper()
	got := "$ " + strings.Join(args, " ")
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	if trace {
		got += " -trace-jsonl spans.jsonl"
		args = append(args, "-trace-jsonl", spans)
	}
	stdout, stderr, code := runMain(t, name, args...)
	got += "\nexit " + strconv.Itoa(code) + "\n"
	if len(args) == 1 && args[0] == "-h" {
		got += "--- flags\n" + flagTable(stderr)
	} else {
		got += "--- stdout\n" + stdout + "--- stderr\n" + stderr
	}
	if trace {
		b, err := os.ReadFile(spans)
		if err != nil {
			t.Fatal(err)
		}
		got += "--- spans.jsonl\n" + string(b)
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// runMain re-executes the test binary as the command. A rejected
// invocation (a bad_* row) must exit within five seconds.
func runMain(t *testing.T, name string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	limit := time.Minute
	if strings.HasPrefix(name, "bad_") {
		limit = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RPCVALET_RUN_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case ctx.Err() != nil:
		t.Fatalf("%s did not exit within %v", strings.Join(args, " "), limit)
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

var defaultRE = regexp.MustCompile(`\(default .*\)$`)

// flagTable reduces -h output to one line per flag: its header ("-name
// type") and default, without usage prose.
func flagTable(help string) string {
	var out strings.Builder
	for _, line := range strings.Split(help, "\n") {
		switch {
		case strings.HasPrefix(line, "  -"):
			out.WriteString("\n" + strings.TrimSpace(line))
		case defaultRE.MatchString(line):
			out.WriteString(" " + defaultRE.FindString(line))
		}
	}
	return strings.TrimPrefix(out.String(), "\n") + "\n"
}
