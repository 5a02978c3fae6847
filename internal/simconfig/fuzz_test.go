package simconfig

import (
	"os"
	"strings"
	"testing"
)

// FuzzParse drives the parser with arbitrary text. The property is the
// emitter round trip: any input the parser accepts, in either spelling, must
// emit in the nodes/edge form only, to a spec the parser accepts again,
// equivalent to the first (rates are compared with a tiny relative
// tolerance — they round-trip through an Mb/s literal). Parser panics,
// emitter failures on parsed specs, and non-canonical emission are all bugs
// this target catches.
func FuzzParse(f *testing.F) {
	for _, fn := range exampleFiles(f) {
		data, err := os.ReadFile(fn)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Add("session a 0 1 greedy\n")
	f.Add("switches 3\ntrunk 0 1e3\nloss 0.5\nalg none\nsession a 0 2 window 1ms 2ms\n")
	f.Add("nodes 3\nedge 0 1 rate=0.25 delay=1us\nedge 1 2\nalg exact\n" +
		"session a 0 2 randonoff 5ms 5ms 3\nat 1ms rate 0 10\nat 2ms loss 1 0.9\nduration 20ms\n")
	f.Add("switches 2\ntrunkrate 50\naccessrate 155.52\nshards 2\nsession a 0 1 greedy\n")
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		roundTrip(t, spec, 1e-9)
	})
}
