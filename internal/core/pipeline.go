package core

import (
	"runtime"
	"sync"
)

// pipeline is the order-preserving, bounded worker pool under both stream
// adapters — the §VII stream pipelining: item i+1 is worked on while item
// i is handed on. The Writer submits segments from Write and consumes
// them in its emitter; the Reader submits records from its prefetcher and
// consumes them in Read. One goroutine submits, one consumes, and items
// leave in submission order however the workers interleave.
//
// An item with work takes an admission slot before it is queued and
// holds it until the consumer retires it, so the head of the queue is
// always admitted work (the consumer never waits on a job no worker will
// start) and at most admit items are being worked or awaiting the
// consumer: that is the memory bound. Items without work keep their place
// in the order but take no slot. The job feed holds every admitted item,
// so the hand-off to the workers never blocks after admission.
type pipeline[T any] struct {
	slots chan struct{}     // admission semaphore
	queue chan *pipeItem[T] // every item, in submission order
	jobs  chan *pipeItem[T] // admitted items, to the workers
	wg    sync.WaitGroup    // the workers
	// admitted, when non-nil, runs on the submitting goroutine after an
	// item takes its slot and before it is queued, so an in-flight count
	// kept there never runs behind the consumer's retirements.
	admitted func()
}

// pipeItem is one item travelling through a pipeline.
type pipeItem[T any] struct {
	v    T
	done chan struct{} // closed once the work has run; nil without work
}

// start launches workers goroutines running work over admitted items;
// admit bounds the items holding slots and depth the queue. A pipeline
// lives inside its owner and is started once.
func (p *pipeline[T]) start(workers, admit, depth int, work func(*T)) {
	p.slots = make(chan struct{}, admit)
	p.queue = make(chan *pipeItem[T], depth)
	p.jobs = make(chan *pipeItem[T], admit)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for it := range p.jobs {
				work(&it.v)
				close(it.done)
			}
		}()
	}
}

// pipelineGeometry resolves a pipeline's worker count and admission
// bound: workers defaults to GOMAXPROCS, bound to workers, and there are
// never more workers than admitted items for them to run.
func pipelineGeometry(workers, bound int) (int, int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if bound <= 0 {
		bound = workers
	}
	return min(workers, bound), bound
}

// submit queues v behind every earlier item; with work set it first takes
// an admission slot and, once queued, goes to the workers. It reports
// false, queueing nothing, if stop closes first (a nil stop never does).
func (p *pipeline[T]) submit(v T, work bool, stop <-chan struct{}) bool {
	it := &pipeItem[T]{v: v}
	if work {
		select {
		case p.slots <- struct{}{}:
		case <-stop:
			return false
		}
		it.done = make(chan struct{})
		if p.admitted != nil {
			p.admitted()
		}
	}
	select {
	case p.queue <- it:
	case <-stop:
		return false
	}
	if work {
		p.jobs <- it
	}
	return true
}

// close ends submission. The submitting goroutine calls it once, after
// its last submit.
func (p *pipeline[T]) close() {
	close(p.jobs)
	close(p.queue)
}

// next returns the oldest item the consumer has not taken yet; false once
// submission has closed and the queue is empty.
func (p *pipeline[T]) next() (*pipeItem[T], bool) {
	it, ok := <-p.queue
	return it, ok
}

// wait blocks until the work of an item submitted with work has run. It
// reports false if stop closes first (a nil stop never does).
func (it *pipeItem[T]) wait(stop <-chan struct{}) bool {
	select {
	case <-it.done:
		return true
	case <-stop:
		return false
	}
}

// retire releases the slot of an item the consumer is done with.
func (p *pipeline[T]) retire(it *pipeItem[T]) {
	if it.done != nil {
		<-p.slots
	}
}

// teardown joins the workers once submission has closed, and discards
// whatever the consumer left queued.
func (p *pipeline[T]) teardown() {
	p.wg.Wait()
	for range p.queue {
	}
}
