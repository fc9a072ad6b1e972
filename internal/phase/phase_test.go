package phase

import (
	"sync"
	"testing"
	"time"
)

func sum(d [len(names)]time.Duration) time.Duration {
	var s time.Duration
	for _, x := range d {
		s += x
	}
	return s
}

// TestClockChargesEveryInstantOnce: the phases sum to the wall time
// through Enter, Move and Read; Drop takes its discarded time out of the
// phases only; Reset starts a new run; and Live follows the run while
// another goroutine reads it.
func TestClockChargesEveryInstantOnce(t *testing.T) {
	var c Clock
	if c.Live() != "" {
		t.Fatalf("idle clock in phase %q", c.Live())
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // a job's status poller
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.Live()
			}
		}
	}()
	if span := c.Enter(BFSOther); span != 0 {
		t.Fatalf("the run's first Enter charged %v", span)
	}
	time.Sleep(time.Millisecond)
	c.Enter(BFSTraversal)
	time.Sleep(time.Millisecond)
	walk := c.Enter(LS)
	c.Move(BFSTraversal, Gemm, walk/2)
	if c.Live() != "ls" {
		t.Fatalf("live phase %q, want ls", c.Live())
	}
	d, total := c.Read()
	if sum(d) != total || d[BFSOther] <= 0 || d[Gemm] != walk/2 || d[BFSTraversal] != walk-walk/2 {
		t.Fatalf("phases %v sum to %v, total %v", d, sum(d), total)
	}
	c.Drop()
	c.Enter(Quality)
	time.Sleep(time.Millisecond)
	if d, total := c.Read(); d[LS] != 0 || d[Quality] <= 0 || sum(d) >= total {
		t.Fatalf("after Drop: phases %v, total %v", d, total)
	}
	c.Reset()
	if c.Live() != "" {
		t.Fatalf("reset clock in phase %q", c.Live())
	}
	c.Enter(Project)
	if d, total := c.Read(); sum(d) != total {
		t.Fatalf("after Reset: phases %v sum to %v, total %v", d, sum(d), total)
	}
	close(stop)
	wg.Wait()
}
