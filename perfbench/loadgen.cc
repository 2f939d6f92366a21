#include "perfbench/loadgen.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <thread>

#include "src/base/rng.h"

namespace perfbench {
namespace {

// Replies still missing this long after the last send count as transport errors.
constexpr double kDrainSeconds = 5.0;

// Sleeps and timed waits wake within microseconds instead of the default 50 us slack.
void TightTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

Clock::time_point At(Clock::time_point start, double offset_s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

}  // namespace

Schedule PoissonSchedule(double rate_rps, double seconds, int pool_size, std::uint64_t seed) {
  neocpu::Rng rng(seed);
  Schedule s;
  double t = 0.0;
  while (true) {
    const double u = (static_cast<double>(rng.NextU64() >> 11) + 1.0) / 9007199254740993.0;
    t += -std::log(u) / rate_rps;
    if (t >= seconds) {
      break;
    }
    s.at_s.push_back(t);
    s.input.push_back(static_cast<int>(rng.NextU64() % static_cast<std::uint64_t>(pool_size)));
  }
  return s;
}

double LegResult::OfferedRps() const {
  return send_span_s > 0.0 ? static_cast<double>(attempted) / send_span_s : 0.0;
}

double LegResult::AchievedRps() const {
  return wall_s > 0.0 ? static_cast<double>(ok) / wall_s : 0.0;
}

double LegResult::LatenessGrowthMs() const {
  const std::size_t q = lateness_ms.size() / 4;
  if (q == 0) {
    return 0.0;
  }
  double first = 0.0, last = 0.0;
  for (std::size_t i = 0; i < q; ++i) {
    first += lateness_ms[i];
    last += lateness_ms[lateness_ms.size() - 1 - i];
  }
  return (last - first) / static_cast<double>(q);
}

WireLoad::WireLoad(int port, std::string model, const std::vector<neocpu::Tensor>& pool,
                   const Reference& reference, OutputCheck check, int connections)
    : port_(port),
      model_(std::move(model)),
      pool_(pool),
      reference_(reference),
      check_(check),
      num_connections_(connections) {
  for (const neocpu::Tensor& input : pool_) {
    frames_.push_back(neocpu::EncodeRequestFrame({model_, neocpu::RequestLane::kLatency, input}));
  }
}

bool WireLoad::Connect() {
  connections_ = std::vector<Connection>(static_cast<std::size_t>(num_connections_));
  for (Connection& conn : connections_) {
    if (!conn.client.Connect("127.0.0.1", port_)) {
      return false;
    }
  }
  return true;
}

LegResult WireLoad::OpenLoop(const Schedule& schedule) { return Drive(&schedule, 0.0, 0, 0); }

LegResult WireLoad::ClosedLoop(double seconds, std::uint64_t seed) {
  return Drive(nullptr, seconds, 0, seed);
}

LegResult WireLoad::ClosedLoopRequests(std::uint64_t requests, std::uint64_t seed) {
  return Drive(nullptr, 0.0, requests, seed);
}

void WireLoad::Send(Connection& conn, int input, Clock::time_point intended,
                    LegResult* result) {
  ++result->attempted;
  if (!conn.alive) {
    ++result->transport_errors;
    return;
  }
  const Clock::time_point now = Clock::now();
  result->lateness_ms.push_back(std::max(0.0, MsBetween(intended, now)));
  if (!conn.client.SendRaw(frames_[static_cast<std::size_t>(input)])) {
    ++result->transport_errors;
    Fail(conn, result);
    return;
  }
  conn.inflight.push_back({input, intended});
}

void WireLoad::Fail(Connection& conn, LegResult* result) {
  result->transport_errors += conn.inflight.size();
  conn.inflight.clear();
  conn.alive = false;
  conn.client.Close();
}

void WireLoad::Receive(Connection& conn, LegResult* result) {
  std::uint8_t buf[1 << 16];
  while (conn.alive) {
    const ssize_t got = ::recv(conn.client.fd(), buf, sizeof(buf), MSG_DONTWAIT);
    if (got > 0) {
      conn.rx.insert(conn.rx.end(), buf, buf + got);
      continue;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    }
    if (got < 0 && errno == EINTR) {
      continue;
    }
    Fail(conn, result);  // peer closed or hard error
    return;
  }
  std::size_t pos = 0;
  while (conn.rx.size() - pos >= 4) {
    std::uint32_t len = 0;
    std::memcpy(&len, conn.rx.data() + pos, 4);  // little-endian hosts only
    if (conn.rx.size() - pos - 4 < len) {
      break;
    }
    const Clock::time_point now = Clock::now();
    neocpu::WireResponse response;
    const neocpu::WireError err =
        neocpu::DecodeResponseBody(conn.rx.data() + pos + 4, len, &response);
    pos += 4 + len;
    if (conn.inflight.empty()) {
      ++result->transport_errors;  // a reply nobody asked for
      continue;
    }
    const Pending pending = conn.inflight.front();
    conn.inflight.pop_front();
    if (!err.ok()) {
      ++result->transport_errors;
    } else if (response.ok()) {
      double rel = 0.0;
      if (check_.Pass(response.result, reference_.outputs[static_cast<std::size_t>(pending.input)],
                      &rel)) {
        ++result->ok;
        result->latency_ms.push_back(MsBetween(pending.intended, now));
      } else {
        ++result->wrong;
      }
      result->max_rel_err = std::max(result->max_rel_err, rel);
    } else if (response.error.code == neocpu::WireErrorCode::kOverloaded) {
      ++result->shed;
    } else {
      ++result->transport_errors;
    }
  }
  conn.rx.erase(conn.rx.begin(), conn.rx.begin() + static_cast<std::ptrdiff_t>(pos));
}

LegResult WireLoad::Drive(const Schedule* schedule, double closed_seconds,
                          std::uint64_t closed_requests, std::uint64_t seed) {
  TightTimerSlack();
  LegResult result;
  neocpu::Rng rng(seed);
  const int pool_size = static_cast<int>(pool_.size());
  const std::size_t total = schedule != nullptr ? schedule->at_s.size() : 0;
  std::size_t next = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point closed_end = At(start, closed_seconds);
  Clock::time_point last_send = start;
  std::vector<pollfd> fds(connections_.size());

  while (true) {
    Clock::time_point now = Clock::now();
    bool sending;
    if (schedule != nullptr) {
      while (next < total && At(start, schedule->at_s[next]) <= now) {
        Connection& conn = connections_[next % connections_.size()];
        Send(conn, schedule->input[next], At(start, schedule->at_s[next]), &result);
        ++next;
      }
      sending = next < total;
    } else {
      auto more = [&] {
        return closed_requests > 0 ? result.attempted < closed_requests : now < closed_end;
      };
      sending = more();
      if (sending) {
        for (Connection& conn : connections_) {
          if (conn.alive && conn.inflight.empty() && more()) {
            Send(conn, static_cast<int>(rng.NextU64() % static_cast<std::uint64_t>(pool_size)),
                 Clock::now(), &result);
          }
        }
      }
    }
    if (sending) {
      last_send = Clock::now();
    }
    std::size_t outstanding = 0;
    for (const Connection& conn : connections_) {
      outstanding += conn.inflight.size();
    }
    if (!sending && outstanding == 0) {
      break;
    }
    now = Clock::now();
    if (!sending && SecondsSince(last_send) > kDrainSeconds) {
      for (Connection& conn : connections_) {
        Fail(conn, &result);
      }
      break;
    }
    // Wait for replies until the next scheduled send (open loop) or briefly.
    Clock::time_point wake = now + std::chrono::milliseconds(1);
    if (schedule != nullptr && sending) {
      wake = std::min(wake, At(start, schedule->at_s[next]));
    }
    const auto wait_ns =
        std::max<std::int64_t>(0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now).count());
    timespec ts{static_cast<time_t>(wait_ns / 1000000000), static_cast<long>(wait_ns % 1000000000)};
    for (std::size_t i = 0; i < connections_.size(); ++i) {
      fds[i] = {connections_[i].alive ? connections_[i].client.fd() : -1, POLLIN, 0};
    }
    if (ppoll(fds.data(), fds.size(), &ts, nullptr) > 0) {
      for (std::size_t i = 0; i < connections_.size(); ++i) {
        if (fds[i].revents != 0) {
          Receive(connections_[i], &result);
        }
      }
    }
  }
  result.wall_s = SecondsSince(start);
  result.send_span_s = schedule != nullptr
                           ? (schedule->at_s.empty() ? 0.0 : schedule->at_s.back())
                       : closed_requests > 0
                           ? std::chrono::duration<double>(last_send - start).count()
                           : closed_seconds;
  return result;
}

LegResult InprocOpenLoop(neocpu::InferenceServer* server, const std::string& model,
                         const std::vector<neocpu::Tensor>& pool, const Reference& reference,
                         const OutputCheck& check, const Schedule& schedule) {
  struct Waiting {
    std::future<neocpu::Tensor> result;
    int input = 0;
    Clock::time_point intended;
  };
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<Waiting> queue;
  bool done = false;
  LegResult result;

  std::thread collector([&] {
    TightTimerSlack();
    while (true) {
      Waiting w;
      {
        std::unique_lock<std::mutex> lock(mutex);
        ready.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) {
          return;
        }
        w = std::move(queue.front());
        queue.pop_front();
      }
      const neocpu::Tensor y = w.result.get();
      const Clock::time_point now = Clock::now();
      double rel = 0.0;
      const bool pass =
          check.Pass(y, reference.outputs[static_cast<std::size_t>(w.input)], &rel);
      std::lock_guard<std::mutex> lock(mutex);
      result.max_rel_err = std::max(result.max_rel_err, rel);
      if (pass) {
        ++result.ok;
        result.latency_ms.push_back(MsBetween(w.intended, now));
      } else {
        ++result.wrong;
      }
    }
  });

  TightTimerSlack();
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < schedule.at_s.size(); ++i) {
    const Clock::time_point intended = At(start, schedule.at_s[i]);
    std::this_thread::sleep_until(intended);
    const double late = std::max(0.0, MsBetween(intended, Clock::now()));
    neocpu::SubmitTicket ticket =
        server->TrySubmit(model, pool[static_cast<std::size_t>(schedule.input[i])]);
    std::lock_guard<std::mutex> lock(mutex);
    ++result.attempted;
    result.lateness_ms.push_back(late);
    if (ticket.ok()) {
      queue.push_back({std::move(ticket.result), schedule.input[i], intended});
      ready.notify_one();
    } else if (ticket.status == neocpu::SubmitStatus::kShedQueueFull ||
               ticket.status == neocpu::SubmitStatus::kShedArenaBytes) {
      ++result.shed;
    } else {
      ++result.transport_errors;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
  }
  ready.notify_one();
  collector.join();
  result.wall_s = SecondsSince(start);
  result.send_span_s = schedule.at_s.empty() ? 0.0 : schedule.at_s.back();
  return result;
}

}  // namespace perfbench
