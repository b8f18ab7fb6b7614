package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"simfs/internal/analysis"
	"simfs/internal/analysis/suite"
)

// runBench runs the benchmark in-process for one short workload run and
// decodes its result line.
func runBench(t *testing.T, workload string, trace string, corrupt func(map[string]meanVar)) (int, jsonResult, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", workload, "-seed", "7", "-seconds", "1", "-trace", trace,
		"-work-dir", t.TempDir(), "-span-dir", t.TempDir()}
	code := run(args, &stdout, &stderr, corrupt)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: no result line (exit %d): %v\nstdout:\n%s\nstderr:\n%s", workload, code, err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String()
}

// TestSmoke runs every workload briefly, untraced and traced: each must
// pass its checks with no failed access and report every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				code, res, out := runBench(t, w, trace, nil)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("exit %d, correct %v, attempted %d, failed %d\n%s", code, res.Correct, res.Attempted, res.Failed, out)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

// TestWrongExpectationFails is the benchmark's self-test: one wrong
// expected value must surface as failed accesses and a non-zero exit.
func TestWrongExpectationFails(t *testing.T) {
	var victim string
	code, res, out := runBench(t, "warm-scan", "0", func(expect map[string]meanVar) {
		for name := range expect {
			if victim == "" || name < victim {
				victim = name
			}
		}
		mv := expect[victim]
		mv.mean += 1e-12
		expect[victim] = mv
	})
	if code == 0 || res.Failed == 0 {
		t.Fatalf("a wrong expected value for %s went unnoticed: exit %d, failed %d\n%s", victim, code, res.Failed, out)
	}
	// Every access to the one file fails, and no other: whole rounds make
	// the failed share exactly one file in residentSize.
	if res.Failed*residentSize != res.Attempted {
		t.Errorf("failed %d of %d accesses, want exactly 1 in %d", res.Failed, res.Attempted, residentSize)
	}
	if !strings.Contains(out, victim) {
		t.Errorf("the report does not name %s:\n%s", victim, out)
	}
}

// TestExpectedMeanVarIsStable pins the independent content stream on a
// known file: the expectation must not drift with the program.
func TestExpectedMeanVarIsStable(t *testing.T) {
	a, buf := expectedMeanVar("scan_out_00000001.nc", fileBytes, nil)
	b, _ := expectedMeanVar("scan_out_00000001.nc", fileBytes, buf)
	c, _ := expectedMeanVar("scan_out_00000002.nc", fileBytes, buf)
	if a != b {
		t.Fatalf("same file, different expectations: %+v vs %+v", a, b)
	}
	if a == c {
		t.Fatalf("different files, same expectation %+v", a)
	}
	// Values uniform on [-1, 1): mean near 0, variance near 1/3.
	if a.mean < -0.05 || a.mean > 0.05 || a.variance < 0.3 || a.variance > 0.37 {
		t.Fatalf("implausible expectation %+v", a)
	}
}

// TestVetSuite runs the repository's invariant analyzers (simfs-vet)
// over the benchmark's own packages.
func TestVetSuite(t *testing.T) {
	pkgs, err := analysis.Load(".", "./...")
	if err != nil {
		t.Skipf("loading packages: %v", err)
	}
	findings, err := analysis.Run(pkgs, suite.All, analysis.RunOptions{
		Filter: func(a *analysis.Analyzer, pkg *analysis.Package) bool {
			return strings.HasPrefix(pkg.PkgPath, "simfs/perfbench") && suite.Filter(a, pkg)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f.String())
	}
}
