package sim

import "repro/internal/ring"

// Sink receives what a Pipe delivers: atm.Sink for cells, ip.Sink for
// packets.
type Sink[T any] interface {
	Receive(e *Engine, v T)
}

// Pipe is an output port's data path, whatever it carries: a
// work-conserving FIFO server in front of a constant delay line. Its owner
// decides what enters (Push), how long a service lasts and which event ends
// it (Start names the unit; the end's handler calls Finish, then Depart).
// The line has one delay, so deliveries leave in departure order: a unit in
// flight waits in a ring, and its delivery event, on the engine's band for
// the delay, carries only the pipe. Nothing allocates once the rings have
// grown to their peak. The zero value is an idle, empty pipe.
type Pipe[T any] struct {
	queue, inflight ring.Ring[T]
	// dst is where the units in flight go, as of the latest departure.
	dst Sink[T]
	// wire is the band for the delay, looked up again when it changes.
	wire *Band
	// lastDelivery is when the newest delayed unit arrives: after now
	// exactly while units are in flight, since a delivery due now was
	// scheduled before, so fires before, any end of service at now.
	lastDelivery Time
	busy         bool
	self         deliverer // what delivery events carry (pipeDeliver)
}

// QueueLen returns the number of units queued, the one in service included.
func (p *Pipe[T]) QueueLen() int { return p.queue.Len() }

// QueueCap returns the capacity of the queue's backing array.
func (p *Pipe[T]) QueueCap() int { return p.queue.Cap() }

// Wire returns the band of the latest delayed departure, nil before one.
func (p *Pipe[T]) Wire() *Band { return p.wire }

// Push appends v to the queue.
func (p *Pipe[T]) Push(v T) { p.queue.Push(v) }

// Start begins serving the head of the queue if the server is idle and
// returns it, valid until the next Push; nil while busy or empty.
func (p *Pipe[T]) Start() *T {
	if p.busy || p.queue.Len() == 0 {
		return nil
	}
	p.busy = true
	return p.queue.Peek()
}

// Finish ends the service of the head of the queue and returns it.
func (p *Pipe[T]) Finish() T {
	p.busy = false
	return p.queue.Pop()
}

// Depart puts v on the line: dst receives it delay from now, at once if
// delay is not positive. It reports false and does nothing if v would
// arrive before a unit in flight, which takes a delay lowered while units
// propagate: carrying on would hand each delivery event another's unit.
func (p *Pipe[T]) Depart(e *Engine, v T, delay Duration, dst Sink[T]) bool {
	at := e.now.Add(max(delay, 0))
	if at < p.lastDelivery {
		return false
	}
	if delay <= 0 {
		dst.Receive(e, v)
		return true
	}
	if p.wire == nil || p.wire.Delay() != delay {
		p.wire = e.Band(delay)
	}
	p.lastDelivery, p.dst, p.self = at, dst, p
	*p.inflight.PushSlot() = v // inlined, where Push is a call
	p.wire.After(pipeDeliver, &p.self)
	return true
}

// pipeDeliver hands the oldest unit in flight to its destination. A generic
// handler instantiated inside Depart would be a closure allocated per event,
// so a pipe is a deliverer, carried as a pointer to its self field: that
// assertion is one compare, an assertion to an interface a cache lookup.
func pipeDeliver(e *Engine, pl Payload) { (*pl.Obj.(*deliverer)).deliver(e) }

type deliverer interface{ deliver(e *Engine) }

func (p *Pipe[T]) deliver(e *Engine) { p.dst.Receive(e, p.inflight.Pop()) }
