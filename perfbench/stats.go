package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func collect[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func durationsS(ds []time.Duration) []float64 {
	return collect(ds, func(d time.Duration) float64 { return d.Seconds() })
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// peakRSSMB reads the process's peak resident set size (VmHWM) from
// /proc/self/status; 0 where that file does not exist.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// provenance describes the host, toolchain and source the result came from.
func provenance(workload string, seed int64, traced bool) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"traced":     traced,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest(),
	}
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the checked-out commit from .git without running git; a
// checkout exported without history reports "none" and is identified by
// sourceDigest instead.
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown" // e.g. a packed ref; sourceDigest still identifies the code
}

// sourceDigest hashes the module's Go sources and go.mod files (paths and
// contents, in lexical order), so two results can be matched to the same
// code even without a commit id.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		buf, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(path + "\x00"))
		h.Write(buf)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
