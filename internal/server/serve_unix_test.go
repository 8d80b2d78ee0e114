//go:build unix

package server

import (
	"os"
	"os/signal"
	"syscall"
	"testing"
	"time"

	"github.com/coconut-db/coconut/internal/storage"
)

// TestListenAndServeDrainsOnSignal: SIGTERM reaches onSignal, drains the
// server and closes every index, and ListenAndServe returns nil.
func TestListenAndServeDrainsOnSignal(t *testing.T) {
	ix, _ := buildServedTree(t, storage.NewMemFS())
	mgr := NewManager()
	mgr.Add(NewHandle("ix", ix))
	s := New(mgr, Options{DrainTimeout: 5 * time.Second})
	// A channel of the test's own keeps a SIGTERM that arrives before
	// ListenAndServe registers for it, or after it stops listening, from
	// ending the process; it stays registered for the process's life.
	signal.Notify(make(chan os.Signal, 1), syscall.SIGTERM)

	got := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- s.ListenAndServe(s.NewHTTPServer("127.0.0.1:0"), func(sig os.Signal) { got <- sig })
	}()
	deadline := time.After(10 * time.Second)
	for {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("drain on SIGTERM returned %v", err)
			}
			if sig := <-got; sig != syscall.SIGTERM {
				t.Fatalf("onSignal got %v, want SIGTERM", sig)
			}
			if !s.draining.Load() || !managerClosed(mgr) {
				t.Fatal("SIGTERM did not drain the server and close its indexes")
			}
			return
		case <-deadline:
			t.Fatal("ListenAndServe did not return after SIGTERM")
		case <-time.After(20 * time.Millisecond):
		}
	}
}
