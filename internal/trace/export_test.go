package trace

import "runtime"

// FreeListCap is GOMAXPROCS as the package initialised: the free lists'
// bound.
var FreeListCap = runtime.GOMAXPROCS(0)

// DrainFreeLists empties the Stream and read-buffer free lists, so the next
// replay allocates every buffer anew: the reuse tests' fresh-buffer
// reference.
func DrainFreeLists() {
	for len(streams) > 0 {
		<-streams
	}
	for len(readers) > 0 {
		<-readers
	}
}

// FreeListLens returns how many Streams and read buffers the free lists hold.
func FreeListLens() (nStreams, nReaders int) { return len(streams), len(readers) }
