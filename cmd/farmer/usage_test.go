package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var updateUsage = flag.Bool("update", false, "rewrite cmd/*/testdata/usage.golden from the current binaries")

// daemons are the four long-running commands whose command lines are
// pinned by a usage golden.
var daemons = []string{"farmer", "subfarmer", "jobd", "worker"}

// binDir holds the daemon binaries of one test-binary run; TestMain
// creates and removes it.
var binDir string

// builds maps a daemon name to its once-only build, so each daemon is
// compiled at most once per package run however many tests start it.
var builds sync.Map

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "farmer-daemons-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// buildDaemon builds repro/cmd/<name> once for the package and returns
// the binary.
func buildDaemon(t *testing.T, name string) string {
	t.Helper()
	root := repoRoot(t)
	build, _ := builds.LoadOrStore(name, sync.OnceValues(func() (string, error) {
		bin := filepath.Join(binDir, name)
		cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/"+name)
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			return "", fmt.Errorf("build %s: %v\n%s", name, err, out)
		}
		return bin, nil
	}))
	bin, err := build.(func() (string, error))()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestDaemonUsageGolden pins every flag name, default and usage string of
// the four daemons: `<name> -h` must print cmd/<name>/testdata/usage.golden
// byte for byte, the program path normalised to its base name. Run with
// -update to accept a deliberate command-line change.
func TestDaemonUsageGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon binaries")
	}
	for _, name := range daemons {
		t.Run(name, func(t *testing.T) {
			bin := buildDaemon(t, name)
			var out bytes.Buffer
			cmd := exec.Command(bin, "-h")
			cmd.Stdout = &out
			cmd.Stderr = &out
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s -h: %v\n%s", name, err, out.String())
			}
			got := bytes.ReplaceAll(out.Bytes(), []byte(bin), []byte(name))
			golden := filepath.Join(repoRoot(t), "cmd", name, "testdata", "usage.golden")
			if *updateUsage {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s -h differs from %s:\n--- got\n%s\n--- want\n%s", name, golden, got, want)
			}
		})
	}
}

// TestNonPositivePeriodIsUsageError: every cadence flag refuses a period
// that is not positive as a usage error naming the flag — exit status 2,
// no ticker panic — before the daemon opens a store or a port.
func TestNonPositivePeriodIsUsageError(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon binaries")
	}
	bins := map[string]string{}
	for _, name := range []string{"farmer", "subfarmer", "jobd"} {
		bins[name] = buildDaemon(t, name)
	}
	for _, c := range []struct{ daemon, flag, value string }{
		{"farmer", "checkpoint-period", "0"},
		{"farmer", "status-period", "0"},
		{"subfarmer", "checkpoint-period", "0"},
		{"subfarmer", "status-period", "-1"},
		{"subfarmer", "update-period", "0"},
		{"jobd", "checkpoint-period", "0"},
		{"jobd", "status-period", "0"},
	} {
		cmd := exec.Command(bins[c.daemon], "-addr", "127.0.0.1:0", "-"+c.flag, c.value)
		cmd.Dir = t.TempDir() // where a daemon past its flags would put its store
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%s -%s %s: %v, want exit status 2\n%s", c.daemon, c.flag, c.value, err, out)
			continue
		}
		want := "invalid value " + c.value + " for flag -" + c.flag + ": must be positive\nUsage of "
		if !strings.Contains(string(out), want) || strings.Contains(string(out), "goroutine") {
			t.Errorf("%s -%s %s: not a usage error naming the flag:\n%s", c.daemon, c.flag, c.value, out)
		}
	}
}
