// Load generation for the serving workload.
//
// Wire legs run on ONE thread over a fixed number of loopback connections: requests
// are pre-encoded frames, sent at their scheduled instants (open loop) or as soon as
// the connection's previous reply arrives (closed loop), and replies are read with
// ppoll, decoded with the public wire codec and checked against the reference. The
// server answers a connection's frames in order, so each connection matches replies
// to requests first-in first-out.
//
// The in-process leg sends the same kind of schedule through
// InferenceServer::TrySubmit (never Submit, which aborts the process once its queue is
// full) from one thread and waits for the futures, in order, on a second.
//
// Open-loop latency is timed from each request's intended send instant, so a late
// generator or a stalled server charges its delay to the requests behind it.
#ifndef NEOCPU_PERFBENCH_LOADGEN_H_
#define NEOCPU_PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/serve/frontend/wire_client.h"
#include "src/serve/inference_server.h"

namespace perfbench {

// Poisson arrivals at `rate_rps` over `seconds`, each naming a pooled input; a pure
// function of `seed`.
struct Schedule {
  std::vector<double> at_s;  // intended send offsets from the leg start
  std::vector<int> input;    // pooled input index per request
};
Schedule PoissonSchedule(double rate_rps, double seconds, int pool_size, std::uint64_t seed);

struct LegResult {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;               // answered and matched the reference
  std::uint64_t shed = 0;             // typed overload replies / shed verdicts
  std::uint64_t wrong = 0;            // answered, but failed the output check
  std::uint64_t transport_errors = 0; // lost connections, protocol errors, no reply
  std::vector<double> latency_ms;     // per ok request, from the intended send
  std::vector<double> lateness_ms;    // actual send minus intended send, per request
  double send_span_s = 0.0;           // first to last intended send
  double wall_s = 0.0;                // leg start to last reply
  double max_rel_err = 0.0;

  std::uint64_t failed() const { return attempted - ok; }
  double OfferedRps() const;   // attempted over the send span
  double AchievedRps() const;  // ok replies over the wall time
  // Mean lateness of the last quarter of sends minus that of the first quarter: how
  // far the generator fell further behind while the leg ran.
  double LatenessGrowthMs() const;
};

class WireLoad {
 public:
  // `pool` and `reference` are borrowed for the lifetime of the object.
  WireLoad(int port, std::string model, const std::vector<neocpu::Tensor>& pool,
           const Reference& reference, OutputCheck check, int connections);

  // Opens the connections; false when any cannot connect.
  bool Connect();
  LegResult OpenLoop(const Schedule& schedule);
  // Every connection keeps exactly one request in flight for `seconds`.
  LegResult ClosedLoop(double seconds, std::uint64_t seed);
  // The same, until `requests` have been sent.
  LegResult ClosedLoopRequests(std::uint64_t requests, std::uint64_t seed);

 private:
  struct Pending {
    int input = 0;
    Clock::time_point intended;
  };
  struct Connection {
    neocpu::WireClient client;
    std::deque<Pending> inflight;
    std::vector<std::uint8_t> rx;
    bool alive = true;
  };

  // Shared event loop. Open loop when `schedule` is non-null, else closed loop until
  // `closed_requests` have been sent, or when that is 0 until `closed_seconds` have
  // passed.
  LegResult Drive(const Schedule* schedule, double closed_seconds,
                  std::uint64_t closed_requests, std::uint64_t seed);
  void Send(Connection& conn, int input, Clock::time_point intended, LegResult* result);
  void Receive(Connection& conn, LegResult* result);
  void Fail(Connection& conn, LegResult* result);

  int port_;
  std::string model_;
  const std::vector<neocpu::Tensor>& pool_;
  const Reference& reference_;
  OutputCheck check_;
  int num_connections_;
  std::vector<std::vector<std::uint8_t>> frames_;  // one encoded request per pooled input
  std::vector<Connection> connections_;
};

// Open loop through InferenceServer::TrySubmit, bypassing the socket.
LegResult InprocOpenLoop(neocpu::InferenceServer* server, const std::string& model,
                         const std::vector<neocpu::Tensor>& pool, const Reference& reference,
                         const OutputCheck& check, const Schedule& schedule);

}  // namespace perfbench

#endif  // NEOCPU_PERFBENCH_LOADGEN_H_
