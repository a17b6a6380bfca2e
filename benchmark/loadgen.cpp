#include "loadgen.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <algorithm>
#include <cmath>
#include <limits>

namespace lbench {

using logsim::Result;
using logsim::Status;
namespace serve = logsim::serve;

Status OpenLoop::connect(std::uint16_t port, std::size_t conns) {
  conns_.clear();
  for (std::size_t i = 0; i < conns; ++i) {
    Result<serve::Client> client = serve::Client::connect("127.0.0.1", port);
    if (!client.ok()) return client.status();
    if (Status st = client->hello(); !st.ok()) return st;
    if (client->codec() != serve::Codec::kBinary) {
      return Status::internal("server did not negotiate the binary codec");
    }
    const int fd = client->fd();
    if (::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
      return Status::internal("cannot make the connection non-blocking");
    }
    conns_.emplace_back(std::move(client).value());
  }
  return Status{};
}

PhaseResult OpenLoop::run(const std::vector<Arrival>& schedule,
                          const std::vector<PreparedRequest>& inputs,
                          double rate, double grace_s,
                          logsim::obs::TraceSession* trace,
                          std::uint64_t id_base, std::size_t window,
                          double window_secs) {
  PhaseResult r;
  r.rate = rate;
  r.secs = window > 0 ? window_secs
                      : (schedule.empty() ? 0.0 : schedule.back().due_s);
  const std::size_t n = schedule.size();
  const std::size_t nconn = conns_.size();
  std::vector<double> sent_s(n, -1.0);
  r.due_s.reserve(n);
  for (const Arrival& a : schedule) r.due_s.push_back(a.due_s);
  r.latency_ms.assign(n, std::numeric_limits<double>::infinity());
  r.done_s.assign(n, -1.0);
  r.late_ms.reserve(n);

  const auto t0 = Clock::now();
  auto now_s = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  // Session time of the phase start, to place spans on the trace's clock.
  const double trace_t0 = trace != nullptr ? trace->now_us() : 0.0;

  std::vector<pollfd> pfds(nconn);
  std::vector<char> buf(1 << 16);
  std::size_t next = 0;
  std::size_t outstanding = 0;
  bool transport_failed = false;

  auto on_frame = [&](const serve::Frame& frame, double at_s) {
    if (frame.id < id_base || frame.id - id_base >= n) return;
    const std::size_t i = frame.id - id_base;
    if (sent_s[i] < 0.0) return;  // duplicate reply
    const double due = r.due_s[i];
    bool ok = false;
    const double dec0 = trace != nullptr && i % 2 == 0 ? trace->now_us() : 0.0;
    if (frame.kind == serve::FrameKind::kResult) {
      Result<serve::PredictReply> reply =
          serve::decode_predict_reply(frame.payload, serve::Codec::kBinary);
      if (reply.ok() &&
          inputs[schedule[i].input].expected.matches(
              reply->total_us, reply->comp_us, reply->comm_us,
              reply->comm_worst_us)) {
        ok = true;
      } else {
        ++r.wrong;
      }
    } else {
      ++r.errors;
    }
    if (trace != nullptr && i % 2 == 0) {
      const double end = trace->now_us();
      const double due_us = trace_t0 + due * 1e6;
      trace->complete("serve.request", "e2e", due_us, end - due_us, frame.id);
      trace->complete("gen.late", "layer", due_us, (sent_s[i] - due) * 1e6,
                      frame.id);
      trace->complete("client.wire_decode", "layer", dec0, end - dec0,
                      frame.id);
    }
    sent_s[i] = -1.0;
    --outstanding;
    if (ok) {
      ++r.completed;
      r.latency_ms[i] = (at_s - due) * 1e3;
      r.done_s[i] = at_s;
    }
  };
  // Open loop: a request leaves when it is due.  Closed loop: when fewer
  // than `window` are outstanding, until window_secs have passed; it is
  // then "due" when it leaves.
  auto ready = [&](double now) {
    if (next >= n) return false;
    if (window == 0) return schedule[next].due_s <= now;
    return outstanding < window && now < window_secs;
  };

  while (!transport_failed) {
    double now = now_s();
    while (ready(now)) {
      Conn& c = conns_[next % nconn];
      serve::append_frame(c.out,
                          serve::Frame{serve::FrameKind::kPredict, id_base + next,
                                       inputs[schedule[next].input].payload});
      if (window > 0) r.due_s[next] = now;
      sent_s[next] = now;
      r.late_ms.push_back((now - r.due_s[next]) * 1e3);
      ++next;
      ++outstanding;
      ++r.sent;
      if (next == n) r.backlog = outstanding;
    }
    for (Conn& c : conns_) {
      while (c.out_off < c.out.size()) {
        const ssize_t w = ::send(c.client.fd(), c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (w < 0) {
          if (errno == EINTR) continue;
          if (errno != EAGAIN && errno != EWOULDBLOCK) transport_failed = true;
          break;
        }
        c.out_off += static_cast<std::size_t>(w);
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
    const bool sending = window > 0 ? now < window_secs && next < n : next < n;
    if (!sending && outstanding == 0) break;
    now = now_s();
    if (!sending && now > r.secs + grace_s) break;

    double wait = window == 0 && next < n ? schedule[next].due_s - now : 0.05;
    wait = std::clamp(wait, 0.0, 0.05);
    for (std::size_t i = 0; i < nconn; ++i) {
      pfds[i].fd = conns_[i].client.fd();
      pfds[i].events = static_cast<short>(
          POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT));
      pfds[i].revents = 0;
    }
    timespec ts{};
    ts.tv_sec = static_cast<time_t>(wait);
    ts.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
    if (::ppoll(pfds.data(), nconn, &ts, nullptr) <= 0) continue;
    const double at = now_s();
    for (std::size_t i = 0; i < nconn && !transport_failed; ++i) {
      if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
      Conn& c = conns_[i];
      for (;;) {
        const ssize_t got = ::recv(c.client.fd(), buf.data(), buf.size(), 0);
        if (got > 0) {
          c.frames.feed(buf.data(), static_cast<std::size_t>(got));
          continue;
        }
        if (got < 0 && errno == EINTR) continue;
        if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          transport_failed = true;
        }
        break;
      }
      for (;;) {
        Result<std::optional<serve::Frame>> frame = c.frames.next();
        if (!frame.ok()) {
          transport_failed = true;
          break;
        }
        if (!frame->has_value()) break;
        on_frame(**frame, at);
      }
    }
  }
  r.timeouts = outstanding + (window > 0 ? 0 : n - next);
  if (window > 0) {  // unsent requests of a closed loop do not count
    r.due_s.resize(next);
    r.latency_ms.resize(next);
    r.done_s.resize(next);
  }
  return r;
}

double PhaseResult::throughput() const {
  constexpr std::size_t kSlices = 9;
  double end = 0.0;
  for (double d : done_s) end = std::max(end, d);
  if (end <= 0.0) return 0.0;
  std::vector<double> per_slice(kSlices, 0.0);
  for (double d : done_s) {
    if (d < 0.0) continue;
    per_slice[std::min(static_cast<std::size_t>(d / end * kSlices),
                       kSlices - 1)] += 1;
  }
  for (double& c : per_slice) c /= end / kSlices;
  return percentile(per_slice, 50);
}

namespace {

/// Splits a per-request series into `windows` equal slices by due time.
std::vector<std::vector<double>> slice(const std::vector<double>& due_s,
                                       const std::vector<double>& series,
                                       std::size_t windows) {
  std::vector<std::vector<double>> slices(windows);
  const double width = (due_s.back() + 1e-9) / static_cast<double>(windows);
  for (std::size_t i = 0; i < series.size(); ++i) {
    const auto w = std::min(static_cast<std::size_t>(due_s[i] / width),
                            windows - 1);
    slices[w].push_back(series[i]);
  }
  return slices;
}

}  // namespace

double PhaseResult::sliced(const std::vector<double>& series, double p) const {
  if (series.empty()) return 0.0;
  const auto beyond = static_cast<std::size_t>(
      static_cast<double>(series.size()) * (1.0 - p / 100.0));
  std::size_t windows = std::clamp<std::size_t>(beyond / 25, 1, 5);
  if (windows % 2 == 0) --windows;  // an odd count has a middle slice
  std::vector<double> tails;
  for (const auto& s : slice(due_s, series, windows)) {
    if (!s.empty()) tails.push_back(percentile(s, p));
  }
  return percentile(tails, 50);
}

double PhaseResult::last_slice_median(const std::vector<double>& series) const {
  if (series.empty()) return 0.0;
  return percentile(slice(due_s, series, 5).back(), 50);
}

}  // namespace lbench
