package sim

import "testing"

// pipeUnit is what FuzzPipe's pipe carries: an index and the service time
// the unit was given when it arrived.
type pipeUnit struct {
	id  int
	svc Duration
}

// pipeOwner drives a Pipe the way atmnet.Link and ip.Port do: it schedules
// each unit's end of service — on the band for the unit's service time, as
// a link does, or with AfterFunc, as a port does — finishes it, departs it
// and restarts the server.
type pipeOwner struct {
	pipe    Pipe[pipeUnit]
	onBand  bool
	delay   Duration
	arrived int
	got     []pipeDelivery
}

type pipeDelivery struct {
	id int
	at Time
}

func (o *pipeOwner) Receive(e *Engine, u pipeUnit) {
	o.got = append(o.got, pipeDelivery{u.id, e.Now()})
}

func (o *pipeOwner) arrive(e *Engine, svc Duration) {
	o.pipe.Push(pipeUnit{o.arrived, svc})
	o.arrived++
	o.start(e)
}

func (o *pipeOwner) start(e *Engine) {
	u := o.pipe.Start()
	switch {
	case u == nil:
	case o.onBand:
		e.Band(u.svc).After(pipeOwnerDone, o)
	default:
		e.AfterFunc(u.svc, pipeOwnerDone, Payload{Obj: o})
	}
}

func pipeOwnerDone(e *Engine, p Payload) {
	o := p.Obj.(*pipeOwner)
	u := o.pipe.Finish()
	if !o.pipe.Depart(e, u, o.delay, o) {
		panic(pipeBackwards{u.id, e.Now()})
	}
	o.start(e)
}

// pipeBackwards is the panic of an owner whose Depart refused a unit.
type pipeBackwards struct {
	id int
	at Time
}

// pipeOracle is the closed form of a FIFO server in front of a delay line:
// unit i departs at max(arrive_i, depart_{i-1}) + service_i and is delivered
// at depart_i + the delay in force at its departure. A delay set at clock c
// is in force for departures after c: a departure at c has fired before the
// program's next op. Deliveries leave in departure order, and a departure
// whose delivery would come before an earlier unit's — a delay lowered under
// units in flight — is refused.
type pipeOracle struct {
	initial Duration
	arrive  []Time
	svc     []Duration
	// changes are the delay settings, by the clock they were made at.
	changes []pipeDelayChange
}

type pipeDelayChange struct {
	at    Time
	delay Duration
}

// run returns each unit's departure and delivery time, up to and including
// the first refused unit, and that unit's index (-1 if none).
func (o *pipeOracle) run() (depart, deliver []Time, refused int) {
	var free, last Time
	for i, arr := range o.arrive {
		d := max(arr, free) + Time(o.svc[i])
		free = d
		delay := o.initial
		for _, c := range o.changes {
			if c.at < d {
				delay = c.delay
			}
		}
		at := d.Add(max(delay, 0))
		depart, deliver = append(depart, d), append(deliver, at)
		if at < last {
			return depart, deliver, i
		}
		last = at
	}
	return depart, deliver, -1
}

// A FuzzPipe program is a header byte — bit 0 puts every end of service on a
// band, bits 1–7 are the initial delay — then two-byte ops, opcode and arg.
const (
	pipeArrive  = iota // 1–4 units arrive now, with the current service time
	pipeRun            // RunUntil(clock + arg)
	pipeRunLong        // RunUntil(clock + 64·arg)
	pipeRead           // QueueLen, checked against the oracle
	pipeService        // service time for later arrivals: 1 + arg%32
	pipeRaise          // delay += 1 + arg%64
	pipeLower          // delay = delay·(arg%4)/4: 0 — a zero-delay stretch — or less
	pipeOps
)

// FuzzPipe holds a Pipe, driven through its owner's contract, to pipeOracle:
// every delivery's unit, time and order, every QueueLen read between events,
// and a refused departure exactly where a lowered delay puts a unit ahead of
// one in flight.
func FuzzPipe(f *testing.F) {
	seed := func(header byte, ops ...byte) { f.Add(append([]byte{header}, ops...)) }
	// A burst queues behind the server, read while it drains.
	seed(20, pipeArrive, 3, pipeRead, 0, pipeRun, 5, pipeRead, 0, pipeRunLong, 4, pipeRead, 0)
	// The same on bands, with the service time changed between bursts.
	seed(21, pipeArrive, 3, pipeService, 9, pipeArrive, 2, pipeRun, 20, pipeRead, 0, pipeRunLong, 8)
	// A delay raised mid-run: later units ride another band, in order.
	seed(40, pipeArrive, 3, pipeRun, 2, pipeRaise, 30, pipeArrive, 1, pipeRead, 0, pipeRunLong, 8)
	// A zero-delay stretch after the line has drained, then a delay again.
	seed(10, pipeArrive, 1, pipeRunLong, 4, pipeLower, 0, pipeArrive, 3, pipeRun, 3, pipeRead, 0,
		pipeRunLong, 4, pipeRaise, 5, pipeArrive, 1, pipeRunLong, 4)
	// A delay lowered under units in flight is refused.
	seed(60, pipeArrive, 2, pipeRun, 2, pipeLower, 2, pipeRunLong, 8)
	// And so is a zero-delay stretch begun under units in flight.
	seed(61, pipeArrive, 2, pipeRun, 2, pipeLower, 0, pipeRunLong, 8)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		e := NewEngine()
		o := &pipeOwner{onBand: prog[0]&1 != 0, delay: Duration(prog[0] >> 1)}
		orc := &pipeOracle{initial: o.delay}
		type read struct {
			at            Time
			arrived, qlen int
		}
		var reads []read
		svc := Duration(1)
		var refused *pipeBackwards
		runUntil := func(t Time) {
			defer func() {
				if r := recover(); r != nil {
					b, ok := r.(pipeBackwards)
					if !ok {
						panic(r)
					}
					refused = &b
				}
			}()
			e.RunUntil(t)
		}
		const maxUnits, maxOps = 2000, 512
		ops := prog[1:]
		for n := 0; len(ops) >= 2 && n < maxOps && refused == nil; ops, n = ops[2:], n+1 {
			arg := ops[1]
			switch ops[0] % pipeOps {
			case pipeArrive:
				for i := 0; i <= int(arg&3) && o.arrived < maxUnits; i++ {
					orc.arrive, orc.svc = append(orc.arrive, e.Now()), append(orc.svc, svc)
					o.arrive(e, svc)
				}
			case pipeRun:
				runUntil(e.Now().Add(Duration(arg)))
			case pipeRunLong:
				runUntil(e.Now().Add(64 * Duration(arg)))
			case pipeRead:
				reads = append(reads, read{e.Now(), o.arrived, o.pipe.QueueLen()})
			case pipeService:
				svc = 1 + Duration(arg%32)
			case pipeRaise:
				o.delay += 1 + Duration(arg%64)
				orc.changes = append(orc.changes, pipeDelayChange{e.Now(), o.delay})
			case pipeLower:
				o.delay = o.delay * Duration(arg%4) / 4
				orc.changes = append(orc.changes, pipeDelayChange{e.Now(), o.delay})
			}
		}
		if refused == nil {
			runUntil(maxTime)
		}

		depart, deliver, bad := orc.run()
		switch {
		case refused == nil && bad >= 0:
			t.Fatalf("unit %d departing at %dns for %dns, behind a unit due at %dns, was not refused", bad, depart[bad], deliver[bad], deliver[bad-1])
		case refused != nil && (refused.id != bad || refused.at != depart[bad]):
			t.Fatalf("refused unit %d at %dns; the oracle refuses unit %d", refused.id, refused.at, bad)
		}
		// Delivered: every unit, or those due by the refused unit's departure.
		var want []pipeDelivery
		for i := range deliver {
			if refused == nil || i < bad && deliver[i] <= depart[bad] {
				want = append(want, pipeDelivery{i, deliver[i]})
			}
		}
		if len(o.got) != len(want) {
			t.Fatalf("delivered %d units, want %d:\n got %v\nwant %v", len(o.got), len(want), o.got, want)
		}
		for i := range want {
			if o.got[i] != want[i] {
				t.Fatalf("delivery %d is unit %d at %dns, want unit %d at %dns", i, o.got[i].id, o.got[i].at, want[i].id, want[i].at)
			}
		}
		for _, r := range reads {
			departed := 0
			for _, d := range depart {
				if d <= r.at {
					departed++
				}
			}
			if want := r.arrived - departed; r.qlen != want {
				t.Fatalf("QueueLen at %dns = %d, want %d (%d arrived, %d departed)", r.at, r.qlen, want, r.arrived, departed)
			}
		}
		if refused == nil && o.pipe.QueueLen() != 0 {
			t.Fatalf("QueueLen after the drain = %d", o.pipe.QueueLen())
		}
	})
}
