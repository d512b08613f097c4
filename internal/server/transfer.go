package server

import (
	"net/http"
)

// Checkpoint transfer over HTTP. File-based /v1/checkpoint requires every
// node to see the same filesystem; these two endpoints move the same bytes
// over the wire instead, so a fresh node can be seeded from a live one
// (`curl node-a/v1/checkpoint/download | curl -X POST --data-binary @-
// node-b/v1/checkpoint/upload`) with no shared disk. Upload goes through
// the same hardened loaders as file restore: shape bounds, NaN/Inf
// rejection, version checks — a corrupt or hostile body cannot replace the
// backend.

// maxTransferBytes caps a checkpoint upload or cluster push body. The
// largest sketch the serialization layer itself accepts (2^27 buckets) is
// 1 GiB of float64s, so this cap never rejects a checkpoint the loader
// could accept.
const maxTransferBytes = (1 << 30) + (64 << 20)

// handleCheckpointDownload streams the live backend state. The read lock
// is held for the duration of the write: updates queue behind a slow
// download, restores wait, reads proceed.
func (s *Server) handleCheckpointDownload(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="wmserve.ckpt"`)
	var err error
	s.withBackend(func(b learner) { _, err = b.WriteTo(w) })
	if err != nil {
		// Headers are gone; all we can do is cut the stream so the client
		// sees a truncated body rather than a valid-looking checkpoint.
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	}
}

// handleCheckpointUpload replaces the backend with the posted state. It
// reports the bytes the loader consumed: a chunked body has no
// Content-Length to echo.
func (s *Server) handleCheckpointUpload(w http.ResponseWriter, r *http.Request) {
	if !s.authorized(w, r) {
		return
	}
	body := &countingReader{rc: r.Body}
	if err := s.restoreFromReader(r.Context(), body); err != nil {
		writeError(w, http.StatusBadRequest, "upload: %v", err)
		return
	}
	// The restored model is this node's new local state; publish it so the
	// cluster view doesn't keep serving the pre-upload model.
	warning, err := s.publishRestored()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "restored but publish failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, CheckpointResponse{Action: "upload", Bytes: body.n, Warning: warning})
}
