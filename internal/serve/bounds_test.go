package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"testing"

	"sia/internal/core"
	"sia/internal/serve/api"
)

// boundedTimeouts are the timeout_ms values the bounds tests try: the
// int64 extremes, and the three counts whose nanoseconds overflow int64
// to a negative Duration, to zero, and to 448µs.
var boundedTimeouts = []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 9223372036855, 1 << 62, 18446744073710}

// maxDenominatorCap is core.MaxDenominatorLimit, written out so that the
// bounds hold the server to the figure itself.
const maxDenominatorCap = 1024

// checkBounds asserts the serving contract for one request: parse either
// rejects it as invalid options (a 400) or yields a deadline in
// (0, MaxTimeout] and core.Options with no negative field and a
// MaxDenominator of at most maxDenominatorCap. It returns whether the
// request was accepted.
func checkBounds(t *testing.T, s *Server, req api.SynthesizeRequest) bool {
	t.Helper()
	pr, err := s.parse(req)
	if err != nil {
		if !errors.Is(err, core.ErrInvalidOptions) || api.StatusFor(err) != http.StatusBadRequest {
			t.Fatalf("timeout_ms %d, options %+v: rejected with %v, want a 400", req.TimeoutMS, req.Options, err)
		}
		return false
	}
	if pr.timeout <= 0 || pr.timeout > s.cfg.MaxTimeout {
		t.Fatalf("timeout_ms %d: deadline %v outside (0, %v]", req.TimeoutMS, pr.timeout, s.cfg.MaxTimeout)
	}
	o := pr.opts
	if o.MaxIterations < 0 || o.InitialTrue < 0 || o.InitialFalse < 0 || o.SamplesPerIteration < 0 ||
		o.MaxDenominator < 0 || o.SolverTimeout < 0 || o.Timeout < 0 {
		t.Fatalf("options %+v became core.Options %+v with a negative field", req.Options, o)
	}
	if o.MaxDenominator > maxDenominatorCap {
		t.Fatalf("options %+v accepted with MaxDenominator %d above %d", req.Options, o.MaxDenominator, maxDenominatorCap)
	}
	return true
}

// boundsRequest is simpleBody's request with the given deadline and options.
func boundsRequest(timeoutMS int64, opts *api.RequestOptions) api.SynthesizeRequest {
	var req api.SynthesizeRequest
	if err := json.Unmarshal([]byte(simpleBody), &req); err != nil {
		panic(err)
	}
	req.TimeoutMS, req.Options = timeoutMS, opts
	return req
}

// TestRequestBounds sends every boundedTimeouts value as the request's
// deadline and as both option durations, and every option at -1, to a
// fresh server each, so every accepted request runs a synthesis under the
// deadline the server derived, and max_denominator at the cap and far
// above it. A negative value or one above the cap is refused with 400;
// everything else is answered 200. The 1 ms deadline alone may also end
// in 504, the answer to a deadline that passes mid-synthesis.
func TestRequestBounds(t *testing.T) {
	type row struct {
		name      string
		timeoutMS int64
		opts      *api.RequestOptions
		reject    bool
	}
	var rows []row
	for _, v := range boundedTimeouts {
		rows = append(rows,
			row{fmt.Sprintf("timeout_ms=%d", v), v, nil, v < 0},
			row{fmt.Sprintf("options_timeouts=%d", v), 0, &api.RequestOptions{SolverTimeoutMS: v, TimeoutMS: v}, v < 0})
	}
	rows = append(rows,
		row{"max_iterations=-1", 0, &api.RequestOptions{MaxIterations: -1}, true},
		row{"initial_true=-1", 0, &api.RequestOptions{InitialTrue: -1}, true},
		row{"initial_false=-1", 0, &api.RequestOptions{InitialFalse: -1}, true},
		row{"samples_per_iteration=-1", 0, &api.RequestOptions{SamplesPerIteration: -1}, true},
		row{"max_denominator=-1", 0, &api.RequestOptions{MaxDenominator: -1}, true},
		row{"max_denominator=1<<40", 0, &api.RequestOptions{MaxDenominator: 1 << 40}, true},
		row{fmt.Sprintf("max_denominator=%d", maxDenominatorCap), 0, &api.RequestOptions{MaxDenominator: maxDenominatorCap}, false})
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			srv, ts := newTestServer(t, testConfig())
			req := boundsRequest(r.timeoutMS, r.opts)
			if accepted := checkBounds(t, srv, req); accepted == r.reject {
				t.Fatalf("accepted=%v, want %v", accepted, !r.reject)
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			resp, _, raw := post(t, ts.URL, api.PathSynthesize, string(body))
			want := http.StatusOK
			if r.reject {
				want = http.StatusBadRequest
			}
			if resp.StatusCode != want && !(r.timeoutMS == 1 && resp.StatusCode == http.StatusGatewayTimeout) {
				t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, want, raw)
			}
		})
	}
}

// FuzzRequestBounds checks the serving contract of checkBounds on
// arbitrary deadlines and options.
func FuzzRequestBounds(f *testing.F) {
	for _, v := range boundedTimeouts {
		f.Add(v, 0, 0, 0, 0, int64(0), v, v)
	}
	f.Add(int64(-1), -1, -1, -1, -1, int64(-1), int64(-1), int64(-1))
	f.Add(int64(0), 0, 0, 0, 0, int64(1<<40), int64(0), int64(0))
	srv, err := New(testConfig())
	if err != nil {
		f.Fatal(err)
	}
	defer srv.Close()
	f.Fuzz(func(t *testing.T, timeoutMS int64, iters, initTrue, initFalse, perIter int, maxDen, solverMS, optMS int64) {
		checkBounds(t, srv, boundsRequest(timeoutMS, &api.RequestOptions{
			MaxIterations: iters, InitialTrue: initTrue, InitialFalse: initFalse,
			SamplesPerIteration: perIter, MaxDenominator: maxDen,
			SolverTimeoutMS: solverMS, TimeoutMS: optMS,
		}))
	})
}
