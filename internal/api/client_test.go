package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/store"
)

// TestLongLinesRoundTrip: the client's line scanner starts small and grows,
// so a /series row and a /results line each longer than 64 KiB still reach
// the caller whole.
func TestLongLinesRoundTrip(t *testing.T) {
	pts := make([]metrics.Point, 8000)
	for i := range pts {
		pts[i] = metrics.Point{T: sim.Time(i * 1000), V: float64(i) / 3}
	}
	series := SeriesRow{Experiment: "sweep/acr", Sweep: 3, Name: "acr", Points: pts}
	run := RunResult{ID: "E01", SimNS: 7, Drifts: []string{strings.Repeat("d", 96<<10)}}
	rows := map[string][]any{
		PathPrefix + "/jobs/j/series":  {series},
		PathPrefix + "/jobs/j/results": {ResultLine{Run: &run}, ResultLine{Report: &Report{SchemaVersion: SchemaVersion, Kind: KindSuite}}},
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Trailer", TrailerScanStats)
		enc := json.NewEncoder(w)
		for _, row := range rows[r.URL.Path] {
			if err := enc.Encode(row); err != nil {
				t.Error(err)
			}
		}
		w.Header().Set(TrailerScanStats, `{"files":1,"files_skipped":0,"blocks":1,"blocks_scanned":1,"blocks_skipped":0,"bytes_read":1}`)
	}))
	defer srv.Close()
	c := NewClient(srv.URL)

	src := &RemoteSource{C: c, Job: "j"}
	var got []store.SeriesChunk
	if err := src.Series(store.Query{Sweep: store.AnySweep}, func(sc store.SeriesChunk) error {
		got = append(got, sc)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if b, _ := json.Marshal(series); len(b) <= 64<<10 {
		t.Fatalf("the series row is only %d bytes", len(b))
	}
	if len(got) != 1 || fmt.Sprint(got[0].Points) != fmt.Sprint(pts) {
		t.Fatalf("series rows = %d, first differs from what was sent", len(got))
	}

	var runs []RunResult
	rep, err := c.Results("j", func(r RunResult) { runs = append(runs, r) })
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil || len(runs) != 1 || len(runs[0].Drifts) != 1 || runs[0].Drifts[0] != run.Drifts[0] {
		t.Fatalf("results stream lost its long line: %d runs, report %v", len(runs), rep)
	}
}
