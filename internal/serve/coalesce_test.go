package serve

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFlightCoalescesConcurrentCallers is the singleflight contract
// under the race detector: N concurrent callers with one key cost
// exactly one invocation, and every caller sees the same bytes.
func TestFlightCoalescesConcurrentCallers(t *testing.T) {
	const callers = 64
	g := newFlightGroup()
	var (
		invocations atomic.Int64
		done        sync.WaitGroup
	)
	results := make([][]byte, callers)
	shared := make([]bool, callers)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			val, wasShared, err := g.Do("key", func() ([]byte, error) {
				invocations.Add(1)
				// Park the leader until every other caller is counted as
				// coalesced, which Do does only once it holds this flight:
				// a caller that has merely been started could still arrive
				// after the flight is over and lead a second one.
				for g.Coalesced() < callers-1 {
					runtime.Gosched()
				}
				return []byte("result"), nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i], shared[i] = val, wasShared
		}(i)
	}
	done.Wait()

	if n := invocations.Load(); n != 1 {
		t.Fatalf("%d invocations for %d concurrent identical requests, want 1", n, callers)
	}
	leaders := 0
	for i := range results {
		if !bytes.Equal(results[i], []byte("result")) {
			t.Fatalf("caller %d got %q", i, results[i])
		}
		if !shared[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}
	if got := g.Coalesced(); got != callers-1 {
		t.Fatalf("coalesced = %d, want %d", got, callers-1)
	}
}

// TestFlightErrorsShared checks followers share the leader's error and
// that a later call retries instead of caching the failure.
func TestFlightErrorsShared(t *testing.T) {
	g := newFlightGroup()
	boom := errors.New("boom")
	if _, _, err := g.Do("k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("leader error = %v", err)
	}
	// The flight is gone; a fresh call runs again.
	val, shared, err := g.Do("k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || shared || string(val) != "ok" {
		t.Fatalf("retry after error: val=%q shared=%v err=%v", val, shared, err)
	}
}

// TestFlightDistinctKeysDoNotCoalesce checks keys are independent.
func TestFlightDistinctKeysDoNotCoalesce(t *testing.T) {
	g := newFlightGroup()
	var invocations atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := string(rune('a' + i))
			g.Do(key, func() ([]byte, error) {
				invocations.Add(1)
				return []byte(key), nil
			})
		}(i)
	}
	wg.Wait()
	if n := invocations.Load(); n != 8 {
		t.Fatalf("%d invocations for 8 distinct keys, want 8", n)
	}
	if g.Coalesced() != 0 {
		t.Fatalf("coalesced = %d for distinct keys", g.Coalesced())
	}
}
