package experiments

import (
	"reflect"
	"sync"
	"testing"

	"github.com/cosmos-coherence/cosmos/internal/core"
	"github.com/cosmos-coherence/cosmos/internal/stats"
)

// size is the number of keys the memo has computed (or is computing):
// each key's value is computed exactly once, so for the evaluation memo
// it counts the evaluations the suite has run.
func (m *memo[K, V]) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

func TestEvaluateMemoizesCell(t *testing.T) {
	s := smallSuite.Fresh()
	cfg := core.Config{Depth: 2, FilterMax: 1}
	first, err := s.Evaluate("moldyn", cfg, stats.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Pool width is not part of the key: every width shares the result.
	for _, workers := range []int{0, 1, 8} {
		again, err := s.Evaluate("moldyn", cfg, stats.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("Workers=%d: repeated cell returned a different *Result", workers)
		}
	}
	// Every other option is: a different cell is a different result.
	other, err := s.Evaluate("moldyn", cfg, stats.Options{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if other == first {
		t.Fatal("MaxIterations did not change the memo key")
	}
	if got := s.evals.size(); got != 2 {
		t.Fatalf("suite ran %d evaluations, want 2", got)
	}
}

func TestTable7ReusesTable5(t *testing.T) {
	s := smallSuite.Fresh()
	if _, err := Table5(s); err != nil {
		t.Fatal(err)
	}
	after5 := s.evals.size()
	if want := 4 * len(s.Apps()); after5 != want {
		t.Fatalf("Table5 ran %d evaluations, want %d", after5, want)
	}
	if _, err := Table7(s); err != nil {
		t.Fatal(err)
	}
	if got := s.evals.size(); got != after5 {
		t.Fatalf("Table7 after Table5 ran %d new evaluations, want 0", got-after5)
	}
	// Table 6's filter-0 cells are Table 5 cells; only filters 1 and 2
	// at depths 1 and 2 are new.
	if _, err := Table6(s); err != nil {
		t.Fatal(err)
	}
	if got, want := s.evals.size()-after5, 2*2*len(s.Apps()); got != want {
		t.Fatalf("Table6 after Table5 ran %d new evaluations, want %d", got, want)
	}
}

func TestEvaluateConcurrentCallersShareOneEvaluation(t *testing.T) {
	s := smallSuite.Fresh()
	const callers = 8
	results := make([]*stats.Result, callers)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := s.Evaluate("barnes", core.Config{Depth: 3}, stats.Options{Workers: 1 + i%3})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i, res := range results {
		if res == nil || res != results[0] {
			t.Fatalf("caller %d got a different *Result than caller 0", i)
		}
	}
	if got := s.evals.size(); got != 1 {
		t.Fatalf("%d concurrent callers ran %d evaluations, want 1", callers, got)
	}
}

func TestEvaluateMemoMatchesDirectEvaluation(t *testing.T) {
	s := smallSuite.Fresh().SetWorkers(4)
	for _, opts := range []stats.Options{{}, {TrackArcs: true, MaxIterations: 3}} {
		cfg := core.Config{Depth: 2}
		got, err := s.Evaluate("dsmc", cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := s.Trace("dsmc")
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers = 1
		want, err := stats.Evaluate(tr, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("opts %+v: memoized result differs from a direct serial evaluation", opts)
		}
	}
}

func TestFreshSharesTraces(t *testing.T) {
	s := smallSuite.Fresh()
	want, err := smallSuite.Trace("unstructured")
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Trace("unstructured")
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("Fresh suite re-captured a trace its parent holds")
	}
	if s.evals == smallSuite.evals || s.evals.size() != 0 {
		t.Fatal("Fresh suite does not start from an empty evaluation memo")
	}
}
