#pragma once
// Traffic generation for the benchmark: closed and open loops over a
// transport-agnostic send function, a seeded Poisson arrival schedule,
// and a raw-f32 /infer client for the HTTP workloads.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/http_client.hpp"

namespace perfbench {

/// What one request returned, as judged by the caller's send function.
struct Outcome {
  bool ok = false;      ///< served (HTTP 200 / future fulfilled)
  bool wrong = false;   ///< served, but failed the correctness gate
  double server_ms = -1.0;  ///< server-side latency, when the transport has one
  std::size_t resp_bytes = 0;
};

/// Sends request number `request` (an index into the workload's input
/// sequence) on client `client`'s own connection and waits for the reply.
using SendFn = std::function<Outcome(int client, std::size_t request)>;

/// `clients` threads send back to back for `seconds`; request indices are
/// handed out in order starting at `first_request`. Returns the completion
/// offsets [s] of the served-and-correct requests that finished inside
/// the phase, ascending.
std::vector<double> run_closed(int clients, double seconds,
                               std::size_t first_request, const SendFn& send);

/// Completion rate [1/s] of a phase, measured between its first and last
/// completion so the figure is not quantised to whole requests.
double completion_rate(const std::vector<double>& times_s);

/// Per-request record of the open loop. Times in ms; `latency_ms` runs
/// from the request's due time to its reply, `late_ms` from due time to
/// the actual send (waiting for a free client counts), `lag_ms` is the
/// generator's own share of that lateness: the send's delay past the later
/// of its due time and the moment a client became free for it. `rtt_ms`
/// runs from the actual send to the reply.
struct OpenSample {
  Outcome out;
  double latency_ms = 0.0;
  double late_ms = 0.0;
  double lag_ms = 0.0;
  double rtt_ms = 0.0;
};

/// Arrival offsets [s] of `count` requests of a Poisson process at `rate`
/// per second, drawn from `seed` alone. The exponential gaps are
/// stratified: the set of gap lengths barely varies between seeds, their
/// order does.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     int count);

/// Sends request i at offset due_s[i] from the start of the phase, on
/// whichever of the `clients` threads is free first. Request indices are
/// first_request + i.
std::vector<OpenSample> run_open(int clients, const std::vector<double>& due_s,
                                 std::size_t first_request, const SendFn& send);

/// One keep-alive connection posting raw little-endian f32 tensors to
/// /infer and decoding the JSON reply. Not thread-safe (one per client).
class InferClient {
 public:
  explicit InferClient(int port);

  struct Reply {
    int status = 0;  ///< 0 = transport error
    std::vector<float> logits;
    double server_ms = -1.0;
    std::size_t body_bytes = 0;
  };
  /// `target` carries the shape query (/infer?shape=N,C,H,W).
  Reply post(const std::string& target, const std::string& body);

 private:
  yoloc::HttpClient client_;
};

}  // namespace perfbench
