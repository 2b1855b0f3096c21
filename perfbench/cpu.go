package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuModules are the cpu.* per-layer metrics: host self time by
// repository module, plus the Go runtime's own work. A sample is
// charged to gc or net when any frame of its stack is collection or
// network work, else to the innermost repository frame (so standard
// library and allocation work counts against the module that called
// it), else to runtime or other. bench is the benchmark's own client
// and check code, which shares the process with the server.
var cpuModules = []string{
	"cache", "coherence", "signature", "mem", "dramcache", "wal", "core",
	"sim", "txds", "shard", "server", "harness", "workload",
	"net", "gc", "runtime", "bench", "other",
}

// cpuProfileHz is the traced window's sampling rate.
const cpuProfileHz = 1000

// cpuProfile is a CPU profile being written for one traced window.
type cpuProfile struct {
	path string
	f    *os.File
}

func startCPUProfile(workload string, seed int64) (*cpuProfile, error) {
	dir, err := traceDir(workload, seed)
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{path: filepath.Join(dir, "cpu.pprof")}
	if p.f, err = os.Create(p.path); err != nil {
		return nil, err
	}
	// A traced window lasts a few seconds on one or two cores; the
	// default 100 Hz would leave a few hundred samples.
	runtime.SetCPUProfileRate(cpuProfileHz)
	if err := pprof.StartCPUProfile(p.f); err != nil {
		p.f.Close()
		return nil, err
	}
	return p, nil
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// shares attributes the profile's samples to modules with the
// installed `go tool pprof` and returns each module's share of the
// sampled CPU time and the number of samples.
func (p *cpuProfile) shares() (map[string]float64, int, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", p.path)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	return attribute(out.Bytes())
}

// attribute parses `pprof -traces` text: one block per distinct stack,
// separated by dashed lines, each starting "<time> <leaf function>"
// followed by one caller per line.
func attribute(text []byte) (map[string]float64, int, error) {
	byMod := map[string]float64{}
	total := 0.0
	var val float64
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			byMod[moduleOf(stack)] += val
			total += val
		}
		stack, val = stack[:0], 0
	}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		if !inSamples {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(stack) == 0 && len(fields) >= 2 {
			d, err := time.ParseDuration(fields[0])
			if err != nil {
				return nil, 0, fmt.Errorf("pprof traces: bad sample value %q", fields[0])
			}
			val = float64(d)
			stack = append(stack, fields[1])
			continue
		}
		stack = append(stack, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("pprof traces: no samples")
	}
	for k := range byMod {
		byMod[k] /= total
	}
	return byMod, int(total * cpuProfileHz / 1e9), nil
}

// gcFrames and netFrames mark a stack as collection or network work.
var (
	gcFrames  = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone"}
	netFrames = []string{"internal/poll.", "net.", "syscall.", "runtime.netpoll", "internal/runtime/syscall.", "runtime/internal/syscall."}
)

// moduleOf names the module a leaf-first stack is charged to.
func moduleOf(stack []string) string {
	for _, prefixes := range []struct {
		mod string
		ps  []string
	}{{"gc", gcFrames}, {"net", netFrames}} {
		for _, fn := range stack {
			for _, p := range prefixes.ps {
				if strings.HasPrefix(fn, p) {
					return prefixes.mod
				}
			}
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "uhtm/internal/"); ok {
			mod, _, _ := strings.Cut(rest, ".")
			for _, m := range cpuModules {
				if m == mod {
					return mod
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "bench"
		}
	}
	if strings.HasPrefix(stack[0], "runtime.") {
		return "runtime"
	}
	return "other"
}

// setCPUShares records every cpu.* metric from a traced window's
// profile.
func setCPUShares(rep *report, p *cpuProfile) error {
	shares, n, err := p.shares()
	if err != nil {
		return err
	}
	for _, m := range cpuModules {
		rep.set("cpu."+m, shares[m], "ratio", n)
	}
	return nil
}
