package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// envHeader is printed at the top of every result so that two results
// are only compared when they came from comparable machines and builds.
type envHeader struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
}

func environment(workload string, seed int64, trace bool) envHeader {
	return envHeader{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Workload:   workload,
		Seed:       seed,
		Trace:      trace,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown"
// where there is none, e.g. off Linux).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit returns HEAD of the repository the benchmark runs from. It
// asks git only when the working directory itself holds a .git entry,
// so a plain source export reports "unknown" rather than the commit of
// some enclosing repository.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	c := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
		c += "-dirty"
	}
	return c
}
