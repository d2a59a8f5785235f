package serve

import (
	"encoding/json"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"time"

	"fasttrack/internal/cliflags"
	"fasttrack/internal/obs"
)

// TraceHeader is the inbound/outbound trace-correlation header: clients may
// supply their own ID (validated by obs.ValidTraceID) and every submit
// response echoes the job's effective ID back.
const TraceHeader = "X-Ftserve-Trace-Id"

// Handler returns the daemon's HTTP surface:
//
//	POST /jobs              submit a job spec (202 accepted, 200 deduped)
//	GET  /jobs              list registered jobs, newest first
//	GET  /jobs/{id}         job status + result
//	GET  /jobs/{id}/stream  SSE: status transitions, progress, windowed metrics
//	GET  /debug/trace/{id}  Perfetto trace-event JSON of the job's stage spans
//	GET  /metrics           Prometheus fleet metrics
//	GET  /healthz           200 serving / 503 draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /debug/trace/{id}", s.handleTrace)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the uniform error envelope: {"error": {...}}.
type errorBody struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	Code         string `json:"code"`
	Field        string `json:"field,omitempty"`
	Message      string `json:"message"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// clientKey identifies the caller for rate limiting: an explicit X-Client
// header when present (load generators and fleets set it), else the remote
// host.
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := cliflags.DecodeJobSpec(http.MaxBytesReader(w, r.Body, cliflags.MaxSpecBytes+1))
	if err != nil {
		s.c.badSpec.Add(1)
		se := cliflags.AsSpecError(err)
		writeJSON(w, http.StatusBadRequest, errorBody{errorDetail{
			Code: "bad_spec", Field: se.Field, Message: se.Msg,
		}})
		return
	}
	traceID := r.Header.Get(TraceHeader)
	if traceID != "" && !obs.ValidTraceID(traceID) {
		// A malformed inbound ID is replaced, not rejected: correlation is
		// best-effort, admission is not the place to fail a job over it.
		traceID = ""
	}
	j, dedup, rej := s.Admit(spec, clientKey(r), traceID)
	if rej != nil {
		if rej.RetryAfter > 0 {
			secs := int64(math.Ceil(rej.RetryAfter.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
		}
		writeJSON(w, rej.Status, errorBody{errorDetail{
			Code: rej.Code, Message: rej.Message,
			RetryAfterMS: rej.RetryAfter.Milliseconds(),
		}})
		return
	}
	status := http.StatusAccepted
	if dedup {
		// The identical job already exists; point the client at it. The
		// echoed trace ID is the existing job's — the handle that actually
		// indexes /debug/trace and the job's slog records.
		status = http.StatusOK
	}
	w.Header().Set(TraceHeader, j.TraceID())
	writeJSON(w, status, struct {
		ID      string `json:"id"`
		TraceID string `json:"trace_id"`
		State   State  `json:"state"`
		Dedup   bool   `json:"dedup,omitempty"`
	}{j.ID, j.TraceID(), j.State(), dedup})
}

// handleTrace serves the job's stage spans as Chrome trace-event JSON,
// loadable in Perfetto alongside the packet tracer (pid 1) and sweep span
// log (pid 2) exports.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{errorDetail{
			Code: "unknown_job", Message: "no such job (unknown ID or evicted by retention)",
		}})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(TraceHeader, j.TraceID())
	_ = j.trace.WriteChrome(w)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	statuses := make([]Status, len(jobs))
	for i, j := range jobs {
		st := j.Status()
		st.Result = nil // list view stays light; fetch /jobs/{id} for results
		statuses[i] = st
	}
	sort.Slice(statuses, func(i, k int) bool { return statuses[i].ID > statuses[k].ID })
	writeJSON(w, http.StatusOK, struct {
		Jobs     []Status `json:"jobs"`
		Queued   int      `json:"queued"`
		Draining bool     `json:"draining"`
	}{statuses, s.QueueDepth(), s.Draining()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{errorDetail{
			Code: "unknown_job", Message: "no such job (unknown ID or evicted by retention)",
		}})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

// handleStream serves the job's SSE feed. Backpressure discipline: frames
// arrive through a bounded drop-oldest buffer (obs.OfferFrame) and every
// write carries a deadline, so a stalled consumer can neither wedge a
// worker nor hold this handler's goroutine past the timeout.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.Job(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, errorBody{errorDetail{
			Code: "unknown_job", Message: "no such job (unknown ID or evicted by retention)",
		}})
		return
	}
	ch := j.subscribe()
	defer j.unsubscribe(ch)

	// The stream span covers this subscriber's whole SSE session; each
	// frame's write+flush lands in the flush histogram, where a slow
	// consumer shows up long before it starts dropping frames.
	span := j.trace.Begin("sse_stream").Attr("client", clientKey(r))
	frames := 0
	defer func() { span.Attr("frames", frames).End() }()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set(TraceHeader, j.TraceID())
	rc := http.NewResponseController(w)
	for {
		select {
		case frame, ok := <-ch:
			if !ok {
				return // job finished: final status frame already sent
			}
			_ = rc.SetWriteDeadline(time.Now().Add(sseWriteTimeout))
			t0 := time.Now()
			if _, err := w.Write(frame); err != nil {
				return
			}
			_ = rc.Flush()
			s.histSSEFlush.Observe(time.Since(t0))
			frames++
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
