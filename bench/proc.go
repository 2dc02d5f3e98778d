package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is where a run builds and works. Everything lives under the
// checkout's .bench_build, so a run reads and writes nothing outside it.
type env struct {
	root string     // the repository checkout
	spec *catalogue // BENCHMARK.json
	bin  string     // built binaries, kept between runs
	work string     // this run's scratch directory, removed on exit
}

// findRoot locates the checkout: the benchmark is started from its root by
// run.sh, or from bench/ by `go run .` and `go test`.
func findRoot() (string, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, root := range []string{cwd, filepath.Dir(cwd)} {
		if _, err := os.Stat(filepath.Join(root, "cmd", "sessionize")); err == nil {
			return root, nil
		}
	}
	return "", fmt.Errorf("no cmd/sessionize in %s or its parent: run from the repository root", cwd)
}

// newEnv reads the catalogue and creates the run's scratch directory.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	spec, err := loadCatalogue(root)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{root: root, spec: spec, bin: filepath.Join(build, "bin")}
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return nil, err
	}
	if e.work, err = os.MkdirTemp(build, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) cleanup() { os.RemoveAll(e.work) }

// sub returns an env with its own scratch directory inside e's, for one of
// several runs made by one process.
func (e *env) sub() (*env, error) {
	work, err := os.MkdirTemp(e.work, "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: e.root, spec: e.spec, bin: e.bin, work: work}, nil
}

func (e *env) tool(name string) string { return filepath.Join(e.bin, name) }

// buildTools compiles the programs under test from the checkout's source.
// With a warm build cache and unchanged source this is a no-op link check.
func (e *env) buildTools(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.bin+string(filepath.Separator),
		"./cmd/sessionize", "./cmd/serve", "./cmd/evaluate")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %v\n%s", err, out)
	}
	return nil
}

// commit names the source under test, when the checkout knows it.
func (e *env) commit() string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = e.root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// childRun is one finished child process.
type childRun struct {
	Wall     time.Duration
	CPU      time.Duration // user + system
	MaxRSS   int64         // bytes
	Stdout   []byte
	Stderr   []byte
	ExitCode int
}

// childUsage is what the launcher reports about the program it ran.
type childUsage struct {
	WallNS   int64 `json:"wall_ns"`
	CPUNS    int64 `json:"cpu_ns"`
	MaxRSS   int64 `json:"max_rss"`
	ExitCode int   `json:"exit_code"`
}

// launcherEnv marks a process as the launcher; see runChild.
const launcherEnv = "SMARTSRA_BENCH_LAUNCH"

// runChild runs a program to completion and returns its wall time, CPU time
// and peak RSS. A non-zero exit is reported in ExitCode, not as an error:
// the caller counts it as a failed operation.
//
// The program is not started from this process but from a launcher — this
// binary again, in a mode that does nothing but start one child and report
// its rusage on descriptor 3. Linux folds the resident-set high-water mark
// of the address space a process execs out of into the new program's
// ru_maxrss, and Go starts children vfork-style from the parent's address
// space; started from here, every child would report this process' own few
// hundred MiB of corpus as its peak. The launcher's address space is a few
// MiB, below any program measured here.
func runChild(ctx context.Context, name string, args ...string) (*childRun, error) {
	return runChildEnv(ctx, nil, name, args...)
}

// runChildEnv is runChild with variables added to the program's environment.
func runChildEnv(ctx context.Context, env []string, name string, args ...string) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer pr.Close()
	cmd := exec.CommandContext(ctx, self, append([]string{name}, args...)...)
	cmd.Env = append(append(os.Environ(), env...), launcherEnv+"=1")
	cmd.ExtraFiles = []*os.File{pw}
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	pw.Close()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	if err != nil {
		return nil, fmt.Errorf("launcher for %s: %v: %s", name, err, lastLine(stderr.Bytes()))
	}
	var u childUsage
	if err := json.NewDecoder(pr).Decode(&u); err != nil {
		return nil, fmt.Errorf("launcher for %s: no usage report: %v", name, err)
	}
	return &childRun{
		Wall: time.Duration(u.WallNS), CPU: time.Duration(u.CPUNS), MaxRSS: u.MaxRSS,
		Stdout: stdout.Bytes(), Stderr: stderr.Bytes(), ExitCode: u.ExitCode,
	}, nil
}

// launchIfAsked turns this process into the launcher when runChild started
// it: run os.Args[1:] with inherited stdout/stderr, time it, write its
// rusage to descriptor 3, exit. A process the launcher started as the
// yardstick runs that job and exits. main and TestMain call it first.
func launchIfAsked() {
	if os.Getenv(launcherEnv) == "" {
		if os.Getenv(yardstickEnv) != "" {
			fmt.Println(yardstickWork(yardLines))
			os.Exit(0)
		}
		return
	}
	// Pdeathsig is delivered when the creating thread exits; pin it.
	runtime.LockOSThread()
	cmd := exec.Command(os.Args[1], os.Args[2:]...)
	cmd.Env = slices.DeleteFunc(os.Environ(), func(kv string) bool { return strings.HasPrefix(kv, launcherEnv+"=") })
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		fmt.Fprintln(os.Stderr, "bench launcher:", err)
		os.Exit(2)
	}
	u := childUsage{WallNS: int64(wall), ExitCode: cmd.ProcessState.ExitCode(),
		CPUNS: int64(cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime())}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		u.MaxRSS = int64(ru.Maxrss) << 10 // Linux reports KiB
	}
	if err := json.NewEncoder(os.NewFile(3, "usage")).Encode(u); err != nil {
		fmt.Fprintln(os.Stderr, "bench launcher:", err)
		os.Exit(2)
	}
	os.Exit(0)
}

// procCPU reads a live process' user+system CPU time from /proc. The tick
// length is the kernel's USER_HZ, which is 100 on every Linux port Go runs
// on.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) is parenthesised and may hold spaces.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("unparseable /proc/%d/stat", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unparseable CPU fields in /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

// procPeakRSS reads a live process' resident-set high-water mark.
func procPeakRSS(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
