// Package locksafe is an analysistest fixture for the locksafe analyzer:
// a store stand-in whose GetTracked counts as simulated I/O, read with
// and without its lock held.
package locksafe

import "sync"

type NodeID int32

type Tracker struct{}

type Store struct{ mu sync.RWMutex }

func (s *Store) GetTracked(id NodeID, tr *Tracker) ([]byte, error) { return nil, nil }

func lockedIO(s *Store) {
	s.mu.Lock()
	s.GetTracked(0, nil) // want `Store\.GetTracked called while holding a lock`
	s.mu.Unlock()

	s.mu.Lock()
	s.mu.Unlock()
	s.GetTracked(0, nil) // released before the read: clean
}

func deferredLockedIO(s *Store, tr *Tracker) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.GetTracked(0, tr) // want `Store\.GetTracked called while holding a lock`
}

func lookupThenRead(s *Store) ([]byte, error) {
	s.mu.RLock()
	n := len(s.trailer())
	s.mu.RUnlock()
	if n == 0 {
		return nil, nil
	}
	return s.GetTracked(0, nil) // clean: lock released
}

func (s *Store) trailer() []byte { return nil }

// unlockThenRead releases the lock inside the early-exit branch, before
// the read: the must-held lockset is empty there, so the read is clean
// even though the lock is still held after the branch.
func unlockThenRead(s *Store, c bool) ([]byte, error) {
	s.mu.Lock()
	if c {
		s.mu.Unlock()
		return s.GetTracked(0, nil) // clean: released on this path
	}
	s.mu.Unlock()
	return nil, nil
}

func allowedLockedIO(s *Store) {
	s.mu.Lock()
	//rstknn:allow locksafe single-threaded recovery path
	s.GetTracked(0, nil)
	s.mu.Unlock()
}

// readAll hides the simulated I/O behind a helper; its PerformsIO fact
// makes the locked call below visible transitively.
func (s *Store) readAll() [][]byte {
	b, err := s.GetTracked(0, nil)
	if err != nil {
		return nil
	}
	return [][]byte{b}
}

func transitiveLockedIO(s *Store) {
	s.mu.Lock()
	s.readAll() // want `Store\.readAll performs simulated I/O .* while a lock is held`
	s.mu.Unlock()
	s.readAll() // clean: lock released
}

// closureLockedIO locks and reads inside a func literal: the closure's
// body is solved as its own CFG, so the read under its lock is flagged.
func closureLockedIO(s *Store, done chan struct{}) {
	go func() {
		s.mu.Lock()
		s.GetTracked(0, nil) // want `Store\.GetTracked called while holding a lock`
		s.mu.Unlock()
		close(done)
	}()
}

// closureWrittenUnderLock is written while the lock is held but runs
// later, on its own schedule: its read is clean.
func closureWrittenUnderLock(s *Store) func() {
	s.mu.Lock()
	f := func() { s.GetTracked(0, nil) }
	s.mu.Unlock()
	return f
}
