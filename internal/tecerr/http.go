package tecerr

import "net/http"

// HTTP status contract of the taxonomy, used by the serving layer
// (cmd/tecserve). Like exitStatus it is a single exhaustive table: a
// new Code added without a row here fails TestCodeMappingsExhaustive.
//
//	internal      500  unclassified failure inside the solver stack
//	invalid_input 400  the request itself is malformed or unphysical
//	not_pd        422  the operating point is at/beyond the runaway
//	                   limit lambda_m — well-formed but unsolvable
//	diverged      500  an iterative solve failed to converge
//	cancelled     504  the request's deadline expired (work cut short)
//	panic         500  a recovered worker panic
//	overload      429  shed by admission control (queue full); retry
//	unavailable   503  the server is draining / not accepting work
//
// Several codes legitimately share 500 — they are all "the server
// failed to produce a result" to an HTTP client — so responses must
// carry the Code's String() in the body for class-exact matching.
func (c Code) httpStatus() (status int, ok bool) {
	switch c {
	case CodeInternal:
		return http.StatusInternalServerError, true
	case CodeInvalidInput:
		return http.StatusBadRequest, true
	case CodeNotPD:
		return http.StatusUnprocessableEntity, true
	case CodeDiverged:
		return http.StatusInternalServerError, true
	case CodeCancelled:
		return http.StatusGatewayTimeout, true
	case CodePanic:
		return http.StatusInternalServerError, true
	case CodeOverload:
		return http.StatusTooManyRequests, true
	case CodeUnavailable:
		return http.StatusServiceUnavailable, true
	}
	return http.StatusInternalServerError, false
}

// HTTPStatus maps an error to the HTTP response status of the table
// above, classifying it with CodeOf. nil maps to 200; unclassified
// errors to 500.
func HTTPStatus(err error) int {
	if err == nil {
		return http.StatusOK
	}
	status, _ := CodeOf(err).httpStatus()
	return status
}
