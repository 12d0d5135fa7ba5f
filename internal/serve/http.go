package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// HTTP surface of the service, mounted on the observability mux
// (goldfish-server -serve -obs-addr):
//
//	POST /unlearn               → 202 + ticket, 400 invalid, 413 over maxRequestBytes,
//	                              429 + Retry-After when full
//	GET  /unlearn/stats         → queue depth, counters, forgetting-latency quantiles
//	GET  /unlearn/requests/{id} → the ticket's current lifecycle state

// maxRequestBytes bounds a POST /unlearn body. One request names rows of one
// client; 1 MiB holds well over 100k row indices.
const maxRequestBytes = 1 << 20

// Mount registers the service's handlers on mux.
func (s *Service) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/unlearn", s.handleEnqueue)
	mux.HandleFunc("/unlearn/stats", s.handleStats)
	mux.HandleFunc("/unlearn/requests/", s.handleTicket)
}

// httpError is the JSON error body.
type httpError struct {
	Error string `json:"error"`
}

// writeJSON writes v with the given status. Once the header is out a failed
// encode has no channel left to report on; the truncated body is the signal.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return
	}
}

// handleEnqueue accepts one deletion request.
func (s *Service) handleEnqueue(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, httpError{Error: "POST a deletion request"})
		return
	}
	var req Request
	if err := decodeRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes), &req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				httpError{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, httpError{Error: "invalid request body: " + err.Error()})
		return
	}
	t, err := s.Enqueue(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.RetryAfter().Seconds())))
		writeJSON(w, http.StatusTooManyRequests, httpError{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, httpError{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, t)
}

// decodeRequest decodes exactly one JSON request object from body; unknown
// fields and anything after the object but whitespace are errors.
func decodeRequest(body io.Reader, req *Request) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return err
	}
	switch err := dec.Decode(&struct{}{}); {
	case errors.Is(err, io.EOF):
		return nil
	case err != nil:
		return fmt.Errorf("trailing data after the JSON object: %w", err)
	default:
		return errors.New("trailing data after the JSON object")
	}
}

// handleStats reports the service summary.
func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, httpError{Error: "GET the service stats"})
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleTicket reports one ticket's lifecycle state.
func (s *Service) handleTicket(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, httpError{Error: "GET a ticket by id"})
		return
	}
	raw := strings.TrimPrefix(r.URL.Path, "/unlearn/requests/")
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, httpError{Error: "bad ticket id " + strconv.Quote(raw)})
		return
	}
	t, ok := s.Lookup(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, httpError{Error: "no such ticket (settled tickets age out)"})
		return
	}
	writeJSON(w, http.StatusOK, t)
}
