package core

import (
	"sync"
	"sync/atomic"

	"swbfs/internal/comm"
)

// Host-side worker pools: each BFS module's hot loop (frontier expansion,
// bottom-up probing, handler batch processing) can fan out over
// Config.Workers goroutines, standing in for the lanes of the 64-CPE
// cluster the module owns on the real machine.
//
// The design constraint is bit-identical output across worker counts.
// Workers own word-aligned contiguous shards of the frontier bitmap, so
// each worker's staged pair stream is exactly the slice of the serial scan
// order its shard would produce; the merger forwards the staged chunks in
// worker order, reconstructing the serial stream verbatim; and the
// transport's quantum flush rule makes batch boundaries a function of that
// stream alone, not of how it was chunked. Bitmap writes stay
// contention-free by the same sharding (a worker only sets bits inside its
// own words); parent claims go through the CAS the handler already uses.

// handlerFanoutPairs is the minimum batch size worth fanning across
// workers in the handler; smaller batches stay on the serial path.
const handlerFanoutPairs = 2048

// workerStage is one worker's private staging buffer (handed between a
// scanning worker and the merging sender in comm.StageCapPairs chunks)
// plus the generator input bytes accounted while filling it: scanned edges
// count even when the hub shortcut elides their message.
type workerStage struct {
	comm.Stage
	bytes int64
}

func (ws *workerStage) reset() {
	ws.Stage.Reset()
	ws.bytes = 0
}

var stagePool = sync.Pool{New: func() any { return &workerStage{} }}

func getStage() *workerStage { return stagePool.Get().(*workerStage) }

func putStage(ws *workerStage) {
	ws.reset()
	stagePool.Put(ws)
}

// emitFn hands a full stage downstream and returns the stage to keep
// filling (the same one recycled, or a fresh one). A non-nil error aborts
// the scan promptly — mid-shard, not after iterating the remaining words.
type emitFn func(*workerStage) (*workerStage, error)

// scanFn scans the word range [lo, hi) of a module's bitmap, staging
// outgoing pairs into ws and emitting whenever the stage fills. stop is
// non-nil only on the parallel path; scans poll it per word and bail early
// when a peer failed. It is a method expression ((*nodeState).forwardScan),
// not a bound method value: binding allocates a closure per level.
type scanFn func(ns *nodeState, lo, hi int, stop *atomic.Bool, ws *workerStage, emit emitFn) (*workerStage, error)

// stagedFanout runs scan over nWords words split across the node's
// workers and forwards every staged chunk through the endpoint on channel
// ch, charging the scanned bytes to the generator counters. Workers=1
// runs inline on the calling goroutine — the serial path, no goroutines,
// chunks flushed as they fill. Workers>1 shards the words contiguously,
// runs one goroutine per shard, and merges chunks in worker order;
// bounded channels give pipelining without unbounded staging memory.
func (ns *nodeState) stagedFanout(ch comm.Channel, nWords int, scan scanFn) error {
	k := ns.workers
	if k > nWords {
		k = nWords
	}
	if k <= 1 {
		ws, err := scan(ns, 0, nWords, nil, getStage(), ns.serialEmit[ch])
		if err == nil {
			err = ns.flushStage(ch, ws)
		}
		putStage(ws)
		return err
	}

	var stop atomic.Bool
	outs := make([]chan *workerStage, k)
	for w := 0; w < k; w++ {
		outs[w] = make(chan *workerStage, 2)
		lo, hi := nWords*w/k, nWords*(w+1)/k
		go func(out chan<- *workerStage, lo, hi int) {
			ws, _ := scan(ns, lo, hi, &stop, getStage(), func(ws *workerStage) (*workerStage, error) {
				out <- ws
				return getStage(), nil
			})
			if len(ws.Pairs) > 0 || ws.bytes > 0 {
				out <- ws
			} else {
				putStage(ws)
			}
			close(out)
		}(outs[w], lo, hi)
	}

	var firstErr error
	for w := 0; w < k; w++ {
		for ws := range outs[w] {
			if firstErr == nil {
				if err := ns.flushStage(ch, ws); err != nil {
					firstErr = err
					stop.Store(true) // workers bail at their next word
				}
			}
			putStage(ws)
		}
	}
	return firstErr
}

// flushStage accounts and sends one staged chunk. The endpoint copies the
// pairs into its own buffers, so the stage is reusable on return.
func (ns *nodeState) flushStage(ch comm.Channel, ws *workerStage) error {
	ns.genBytes += ws.bytes
	ws.bytes = 0
	return ws.Flush(ns.ep, ch)
}

// handlerShards splits a handler batch into per-worker contiguous pair
// ranges. It returns nil when the batch is too small (or the node serial):
// the caller then takes the serial path.
func (ns *nodeState) handlerShards(pairs []comm.Pair) [][]comm.Pair {
	k := ns.workers
	if k <= 1 || len(pairs) < handlerFanoutPairs {
		return nil
	}
	if k > len(pairs) {
		k = len(pairs)
	}
	shards := make([][]comm.Pair, k)
	for w := 0; w < k; w++ {
		shards[w] = pairs[len(pairs)*w/k : len(pairs)*(w+1)/k]
	}
	return shards
}
