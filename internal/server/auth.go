package server

import (
	"crypto/subtle"
	"net/http"
	"strings"
)

// Bearer-token authorization for mutating endpoints. The model itself is
// readable by design (estimates, top-K, predictions), but anything that
// changes it or what the node gossips — training updates, syncs,
// checkpoint swaps, cluster pushes — can be gated behind a shared token
// with -auth-token. Peers in an authenticated cluster must be configured
// with the same token, since gossip pushes state.

// authorized reports whether the request may hit a mutating endpoint,
// writing the 401 response itself when not. With no token configured every
// request is allowed.
func (s *Server) authorized(w http.ResponseWriter, r *http.Request) bool {
	if s.opt.AuthToken == "" {
		return true
	}
	const prefix = "Bearer "
	h := r.Header.Get("Authorization")
	if len(h) > len(prefix) && strings.EqualFold(h[:len(prefix)], prefix) &&
		subtle.ConstantTimeCompare([]byte(h[len(prefix):]), []byte(s.opt.AuthToken)) == 1 {
		return true
	}
	w.Header().Set("WWW-Authenticate", `Bearer realm="wmserve"`)
	writeError(w, http.StatusUnauthorized, "missing or invalid bearer token")
	return false
}
