package par

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestFor(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 16
	tests := []struct {
		name    string
		ctx     context.Context
		workers int
		n       int
		fail    map[int]bool // indices whose task fails
		// gate holds index 2's failure until index 9 has failed, so the
		// higher index fails first in time.
		gate    bool
		wantErr error // nil: no error; else errors.Is target
		wantAt  int   // index named by the returned error, -1 for none
		wantRan int   // indices [0, wantRan) must all have run
	}{
		{name: "no failures", ctx: context.Background(), workers: 4, n: n, wantAt: -1, wantRan: n},
		{name: "n zero", ctx: context.Background(), workers: 4, n: 0, wantAt: -1},
		{name: "workers above n", ctx: context.Background(), workers: 64, n: 3, wantAt: -1, wantRan: 3},
		{name: "workers zero is GOMAXPROCS", ctx: context.Background(), workers: 0, n: n, wantAt: -1, wantRan: n},
		{name: "workers negative", ctx: context.Background(), workers: -3, n: n, wantAt: -1, wantRan: n},
		{name: "pre-cancelled serial", ctx: cancelled, workers: 1, n: n, wantErr: context.Canceled, wantAt: -1},
		{name: "pre-cancelled pool", ctx: cancelled, workers: 8, n: n, wantErr: context.Canceled, wantAt: -1},
		{name: "later failure first in time", ctx: context.Background(), workers: 8, n: n, fail: map[int]bool{2: true, 9: true}, gate: true, wantAt: 2, wantRan: 2},
		{name: "serial failing set", ctx: context.Background(), workers: 1, n: n, fail: map[int]bool{5: true, 6: true, 11: true}, wantAt: 5, wantRan: 5},
		{name: "pool failing set", ctx: context.Background(), workers: 8, n: n, fail: map[int]bool{5: true, 6: true, 11: true}, wantAt: 5, wantRan: 5},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			runs := make([]atomic.Int32, tc.n)
			nineFailed := make(chan struct{})
			err := For(tc.ctx, tc.workers, tc.n, func(i int) error {
				runs[i].Add(1)
				if !tc.fail[i] {
					return nil
				}
				if tc.gate && i == 2 {
					<-nineFailed
				}
				if tc.gate && i == 9 {
					defer close(nineFailed)
				}
				return fmt.Errorf("task %d: %w", i, errFailed)
			})
			switch {
			case tc.wantAt >= 0:
				if want := fmt.Sprintf("task %d: %v", tc.wantAt, errFailed); err == nil || err.Error() != want {
					t.Fatalf("err = %v, want %q", err, want)
				}
			case tc.wantErr != nil:
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
			case err != nil:
				t.Fatalf("err = %v, want nil", err)
			}
			for i := range runs {
				got := runs[i].Load()
				if got > 1 {
					t.Errorf("index %d ran %d times", i, got)
				}
				if i < tc.wantRan && got != 1 {
					t.Errorf("index %d ran %d times, want 1", i, got)
				}
				if tc.ctx.Err() != nil && got != 0 {
					t.Errorf("index %d ran under a cancelled ctx", i)
				}
			}
		})
	}
}

var errFailed = errors.New("failed")
