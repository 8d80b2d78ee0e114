package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	coconut "github.com/coconut-db/coconut"
)

const (
	cliLen     = 64
	cliSeries  = 600
	cliQueries = 3
	cliExtra   = 120
)

// runCLI runs one coconut command the way main does — a fresh parseFlags
// per invocation — and returns what it printed.
func runCLI(t *testing.T, cmd string, args ...string) (string, error) {
	t.Helper()
	cfg, err := parseFlags(args)
	if err != nil {
		return "", err
	}
	run := map[string]func(*config) error{
		"build": runBuild, "query": runQuery, "info": runInfo, "stream": runStream, "scrub": runScrub,
	}[cmd]
	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run(cfg)
	os.Stdout = stdout
	w.Close()
	return <-out, runErr
}

func mustCLI(t *testing.T, cmd string, args ...string) string {
	t.Helper()
	out, err := runCLI(t, cmd, args...)
	if err != nil {
		t.Fatalf("coconut %s %v: %v\n%s", cmd, args, err, out)
	}
	return out
}

// answer is a (position, distance) pair as query prints it.
type answer struct {
	pos  int64
	dist string
}

func printed(pos int64, dist float64) answer { return answer{pos, fmt.Sprintf("%.4f", dist)} }

var (
	nearestRE  = regexp.MustCompile(`nearest=#(\d+) dist=([0-9.]+)`)
	neighborRE = regexp.MustCompile(`(?m)^\s+\d+\. #(\d+) dist=([0-9.]+)$`)
)

func parseAnswers(t *testing.T, re *regexp.Regexp, out string) []answer {
	t.Helper()
	var as []answer
	for _, m := range re.FindAllStringSubmatch(out, -1) {
		pos, err := strconv.ParseInt(m[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		as = append(as, answer{pos, m[2]})
	}
	return as
}

func readSeries(t *testing.T, path string) []coconut.Series {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []coconut.Series
	for off := 0; off+8*cliLen <= len(b); off += 8 * cliLen {
		s := make(coconut.Series, cliLen)
		for i := range s {
			s[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[off+8*i:]))
		}
		out = append(out, coconut.ZNormalize(s))
	}
	return out
}

// TestCLIRoundTrip drives build -> info -> query -> stream -> scrub over
// real files for every variant and a materialized tree, unpartitioned and
// 2-partition. Every later
// command runs from a fresh parseFlags that names only the directory and
// the index, and the answers query prints are the public API's on the same
// files.
func TestCLIRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name, variant string
		mat           bool
	}{{"tree", "tree", false}, {"tree-full", "tree", true}, {"lsm", "lsm", false}} {
		variant := c.variant
		for _, parts := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/partitions=%d", c.name, parts), func(t *testing.T) {
				dir := t.TempDir()
				fs, err := coconut.NewDiskStorage(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range []struct {
					name  string
					count int
					seed  int64
				}{{"walk.bin", cliSeries, 1}, {"q.bin", cliQueries, 9}, {"extra.bin", cliExtra, 5}} {
					if err := coconut.GenerateDataset(fs, f.name, coconut.RandomWalk, f.count, cliLen, f.seed); err != nil {
						t.Fatal(err)
					}
				}
				queries := readSeries(t, filepath.Join(dir, "q.bin"))
				at := []string{"-dir", dir, "-name", "idx"}
				with := func(extra ...string) []string { return append(append([]string(nil), at...), extra...) }

				out := mustCLI(t, "build", with("-data", "walk.bin", "-len", strconv.Itoa(cliLen), "-variant", variant,
					"-materialized="+strconv.FormatBool(c.mat),
					"-partitions", strconv.Itoa(parts), "-mem", "65536", "-workers", "2")...)
				if !strings.Contains(out, fmt.Sprintf("%d series", cliSeries)) {
					t.Fatalf("build did not report %d series:\n%s", cliSeries, out)
				}
				if parts > 1 && !strings.Contains(out, fmt.Sprintf("in %d partitions", parts)) {
					t.Fatalf("build did not report %d partitions:\n%s", parts, out)
				}

				out = mustCLI(t, "info", at...)
				stored := variant
				if parts > 1 {
					stored = "partitioned"
				}
				for _, want := range []string{
					fmt.Sprintf("index %q (%s)", "idx", stored), "dataset:   walk.bin",
					fmt.Sprintf("series:    %d", cliSeries), fmt.Sprintf("len=%d", cliLen),
					fmt.Sprintf("materialized:  %v", c.mat),
				} {
					if !strings.Contains(out, want) {
						t.Fatalf("info lacks %q:\n%s", want, out)
					}
				}
				if parts > 1 && !strings.Contains(out, fmt.Sprintf("partitions: %d (%s children)", parts, variant)) {
					t.Fatalf("info does not describe the partition layout:\n%s", out)
				}

				// What the public API answers on the same files: exact,
				// approximate at radius 1 (query's default -radius), and
				// k-NN.
				cfg := coconut.Config{Storage: fs, Name: "idx"}
				ix, err := coconut.Open(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := ix.Variant(); string(got) != variant {
					t.Fatalf("opened a %s index, built a %s", got, variant)
				}
				var exact, approx []answer
				var knn [][]answer
				for _, q := range queries {
					e, err := ix.Search(q)
					if err != nil {
						t.Fatal(err)
					}
					a, err := ix.SearchApprox(q, 1)
					if err != nil {
						t.Fatal(err)
					}
					ns, err := ix.SearchKNN(q, 3)
					if err != nil {
						t.Fatal(err)
					}
					exact, approx = append(exact, printed(e.Position, e.Distance)), append(approx, printed(a.Position, a.Distance))
					var row []answer
					for _, n := range ns {
						row = append(row, printed(n.Position, n.Distance))
					}
					knn = append(knn, row)
				}
				if err := ix.Close(); err != nil {
					t.Fatal(err)
				}

				out = mustCLI(t, "query", with("-queries", "q.bin")...)
				if got := parseAnswers(t, nearestRE, out); fmt.Sprint(got) != fmt.Sprint(exact) {
					t.Fatalf("query printed %v, the public API answers %v:\n%s", got, exact, out)
				}
				if strings.Count(out, "(exact)") != cliQueries {
					t.Fatalf("query did not run %d exact searches:\n%s", cliQueries, out)
				}
				out = mustCLI(t, "query", with("-queries", "q.bin", "-approx")...)
				if got := parseAnswers(t, nearestRE, out); fmt.Sprint(got) != fmt.Sprint(approx) {
					t.Fatalf("query -approx printed %v, the public API answers %v:\n%s", got, approx, out)
				}
				out = mustCLI(t, "query", with("-queries", "q.bin", "-k", "3")...)
				got := parseAnswers(t, neighborRE, out)
				var want []answer
				for _, row := range knn {
					want = append(want, row...)
				}
				if len(got) != 3*cliQueries || fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("query -k 3 printed %v, the public API answers %v:\n%s", got, want, out)
				}

				if variant == "lsm" {
					// Reopen path: the persisted index continues.
					out = mustCLI(t, "stream", with("-append", "extra.bin", "-batch", "50")...)
					for _, want := range []string{
						fmt.Sprintf("reopened LSM index %q: %d series", "idx", cliSeries),
						fmt.Sprintf("streamed %d series in 3 batches in", cliExtra),
						fmt.Sprintf("index: %d series", cliSeries+cliExtra),
					} {
						if !strings.Contains(out, want) {
							t.Fatalf("stream (reopen) lacks %q:\n%s", want, out)
						}
					}
					ix, err := coconut.Open(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					if got := ix.Count(); got != cliSeries+cliExtra {
						t.Fatalf("reopened after stream: %d series, want %d", got, cliSeries+cliExtra)
					}
					if err := ix.Close(); err != nil {
						t.Fatal(err)
					}
					// Bulk-load path: no manifest yet, so stream builds first —
					// over the dataset the first stream grew.
					out = mustCLI(t, "stream", "-dir", dir, "-name", "fresh", "-data", "walk.bin", "-len", strconv.Itoa(cliLen),
						"-partitions", strconv.Itoa(parts), "-mem", "65536", "-append", "extra.bin")
					for _, want := range []string{
						fmt.Sprintf("bulk-loaded LSM index %q: %d series", "fresh", cliSeries+cliExtra),
						fmt.Sprintf("index: %d series", cliSeries+2*cliExtra),
					} {
						if !strings.Contains(out, want) {
							t.Fatalf("stream (bulk load) lacks %q:\n%s", want, out)
						}
					}
					// A non-LSM index is refused, not streamed into.
				} else if _, err := runCLI(t, "stream", with("-append", "extra.bin")...); !errors.Is(err, coconut.ErrConfigMismatch) {
					t.Fatalf("stream into a %s index: %v, want ErrConfigMismatch", variant, err)
				}

				out = mustCLI(t, "scrub", at...)
				if !strings.Contains(out, "idx.manifest") || !strings.Contains(out, "walk.bin") || strings.Count(out, " ok\n") != strings.Count(out, "\n") {
					t.Fatalf("scrub did not verify every artifact:\n%s", out)
				}
			})
		}
	}
}
