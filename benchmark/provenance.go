package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

//go:embed golden.json
var goldenJSON []byte

// goldenDigest returns the digest golden.json pins for a full-scale run of
// workload at seed, if it pins one. Other seeds, and smoke runs, are held to
// the seed-independent cross-checks only.
func goldenDigest(smoke bool, seed uint64, workload string) (string, bool) {
	if smoke {
		return "", false
	}
	var golden map[string]map[string]string // seed → workload → SHA-256
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		panic("benchmark/golden.json: " + err.Error())
	}
	d, ok := golden[fmt.Sprint(seed)][workload]
	return d, ok
}

// provenance says where and how a result was measured. compare refuses to
// mix result sets whose provenance differs.
type provenance struct {
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Commit     string  `json:"commit"`
	Procs      int     `json:"procs"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	// Seed is the first run's seed; with -sets, run i of a workload uses
	// Seed+i.
	Seed uint64 `json:"seed"`
}

func provenanceOf(opt options) provenance {
	scale := "full"
	if opt.smoke {
		scale = "smoke"
	}
	return provenance{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), Commit: commit(), Procs: procs(),
		Scale: scale, Seconds: opt.seconds, Seed: opt.seed,
	}
}

// differs lists the fields in which two provenances disagree. The commit is
// expected to differ between the two sides of a comparison and is not one of
// them.
func (p provenance) differs(q provenance) []string {
	var out []string
	diff := func(name string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s: %v vs %v", name, a, b))
		}
	}
	diff("go_version", p.GoVersion, q.GoVersion)
	diff("gomaxprocs", p.GOMAXPROCS, q.GOMAXPROCS)
	diff("nproc", p.NumCPU, q.NumCPU)
	diff("cpu_model", p.CPUModel, q.CPUModel)
	diff("procs", p.Procs, q.Procs)
	diff("scale", p.Scale, q.Scale)
	diff("seconds", p.Seconds, q.Seconds)
	diff("seed", p.Seed, q.Seed)
	return out
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "unknown".
func commit() string {
	for _, root := range []string{".", ".."} {
		head, err := os.ReadFile(root + "/.git/HEAD")
		if err != nil {
			continue
		}
		ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !ok {
			return strings.TrimSpace(string(head))
		}
		if b, err := os.ReadFile(root + "/.git/" + ref); err == nil {
			return strings.TrimSpace(string(b))
		}
	}
	return "unknown"
}
