package analysis

// LockSafe keeps simulated node/blob I/O out of locked regions: no
// GetTracked on a store type — and no call whose PerformsIO fact is
// set, so snapshot reads and any helper chain above them count too —
// runs while a mutex is held. Holding a buffer-pool shard lock across a
// (simulated) disk read serializes every concurrent reader of that
// shard, the contention the sharded pool was built to remove.
//
// The rule runs on lockorder's must-held lockset (lockorder.go): the
// same CFG solve, so a lock released on an early-exit branch is not
// held at a read on that branch, and a deferred Unlock keeps the lock
// held until the function returns. It stays its own analyzer so that
// //rstknn:allow locksafe on a writer-path read under writeMu does not
// also silence a lock-order cycle at that line. Copies of lock-bearing
// values are go vet's copylocks check.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc:  "forbids simulated I/O while a lock is held, on lockorder's path-sensitive lockset",
	Run:  runLockSafe,
}

func runLockSafe(pass *Pass) error {
	for _, n := range pass.Facts.Nodes() {
		if n.locks == nil {
			continue
		}
		for _, call := range n.locks.locked {
			if name, ok := ioReadCall(pass.TypesInfo, call); ok {
				pass.Reportf(call.Pos(),
					"%s called while holding a lock; release the lock before simulated I/O", name)
				continue
			}
			// Transitive: a helper whose PerformsIO fact is set reads
			// nodes somewhere down its call chain — in this package or,
			// via the facts file, any imported one.
			if fn := staticCallee(pass.TypesInfo, call); fn != nil {
				if yes, why := pass.Facts.IOVerdict(fn); yes {
					pass.Reportf(call.Pos(),
						"%s performs simulated I/O (%s) while a lock is held; release the lock first",
						funcDisplay(fn, pass.Pkg), why)
				}
			}
		}
	}
	return nil
}
