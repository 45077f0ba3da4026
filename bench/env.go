package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// env is where a run was made; every output carries it.
type env struct {
	Commit     string `json:"commit"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Kernel     string `json:"kernel"`
	DataFS     string `json:"data_fs"`
}

// config is how a run was made.
type config struct {
	Seconds       float64 `json:"seconds"`
	Clients       int     `json:"clients"`
	Fsync         bool    `json:"fsync"`
	SnapshotEvery int     `json:"snapshot_every"`
	SetupReps     int     `json:"setup_reps"`
	RestartReps   int     `json:"restart_reps"`
}

func settings(seconds float64) config {
	return config{Seconds: seconds, Clients: clients(), Fsync: fsyncPolicy, SnapshotEvery: snapshotEvery,
		SetupReps: setupReps, RestartReps: restartReps}
}

func environment() env {
	e := env{
		Commit:     "unknown",
		DataFS:     "unknown",
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        firstField("/proc/cpuinfo", "model name"),
		Kernel:     readTrim("/proc/sys/kernel/osrelease"),
	}
	// Data directories live under the working directory (see outDir).
	if wd, err := os.Getwd(); err == nil {
		e.DataFS = fsOf(wd)
	}
	// A driver's checkout is not a git repository; the commit is then unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	return e
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func firstField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsOf names the filesystem type of the longest mount point containing dir.
func fsOf(dir string) string {
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, fields[2]
		}
	}
	return fs
}
