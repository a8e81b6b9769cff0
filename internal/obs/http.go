package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// Handler returns a stdlib-only debug endpoint over the observer:
//
//	GET /metrics          — full JSON snapshot (metrics + drift report)
//	GET /debug/decisions  — recent decision trace entries, oldest first;
//	                        ?n=K limits to the last K entries
//
// Mount it on any mux or serve it on its own listener; handlers only
// read snapshots, so they never contend with the hot path beyond the
// registry's read locks.
func (o *Observer) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, struct {
			Metrics RegistrySnapshot `json:"metrics"`
			Drift   DriftReport      `json:"drift"`
		}{o.Metrics.Snapshot(), o.Drift.Report()})
	})
	mux.HandleFunc("/debug/decisions", func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if raw := r.URL.Query().Get("n"); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v < 0 {
				http.Error(w, "n must be a non-negative integer", http.StatusBadRequest)
				return
			}
			n = v
		}
		writeJSON(w, struct {
			Total     int64        `json:"total"`
			Decisions []TraceEntry `json:"decisions"`
		}{o.Trace.Total(), o.Trace.Snapshot(n)})
	})
	return mux
}

// writeJSON marshals v and writes it with the JSON content type. The
// payload is marshaled before any byte is written so an encoding error
// can still produce a clean 500.
func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// The client vanishing mid-write is its problem, not ours.
	_, _ = w.Write(data)
}
