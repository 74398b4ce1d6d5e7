#include "wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <thread>

#include "src/core/online_monitor.hpp"
#include "src/core/scoring_kernel.hpp"
#include "src/serve/net/frame.hpp"

namespace perfbench {

using namespace cmarkov;
namespace net = cmarkov::serve::net;

std::uint64_t Server::counter(const char* name) {
  return sessions().instruments().counter(name).value();
}

namespace {

/// Threads in `after` that are not in `before`.
std::vector<int> new_threads(const std::vector<int>& before,
                             const std::vector<int>& after) {
  std::vector<int> out;
  for (const int tid : after) {
    if (std::find(before.begin(), before.end(), tid) == before.end()) {
      out.push_back(tid);
    }
  }
  return out;
}

}  // namespace

Server start_server(const serve::ServiceConfig& config,
                    std::vector<std::pair<std::string, core::Detector>> models) {
  Server server;
  const std::vector<int> before = thread_ids();
  server.service = std::make_unique<serve::CmarkovService>(config);
  const std::vector<int> with_workers = thread_ids();
  for (auto& [name, detector] : models) {
    server.service->registry().add(name, std::move(detector));
  }
  net::NetOptions options;
  options.port = 0;
  options.num_loops = 1;
  server.net = std::make_unique<net::EpollServer>(server.sessions(), options);
  server.net->start();
  server.worker_tids = new_threads(before, with_workers);
  server.net_tids = new_threads(with_workers, thread_ids());
  for (const int tid : server.worker_tids) pin_thread(tid, kWorkerCpu);
  for (const int tid : server.net_tids) pin_thread(tid, kLoopCpu);
  return server;
}

namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("perfbench: socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    throw std::runtime_error(std::string("perfbench: connect failed: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("perfbench: send failed: ") +
                               std::strerror(errno));
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

/// Bytes available on the socket without blocking; false once the peer
/// closed or the socket failed.
bool recv_available(int fd, net::FrameParser& parser) {
  char buffer[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (n > 0) {
      parser.feed(buffer, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

std::string hello_frame(const std::string& model, const std::string& id) {
  return net::encode_frame(net::FrameOp::kHello, 0,
                           net::encode_hello_payload(model, id, ""));
}

}  // namespace

struct Generator::Lane {
  std::size_t index = 0;
  LaneSpec spec;
  int fd = -1;
  net::FrameParser parser;
  enum class State { kIdle, kHello, kRunning, kBye } state = State::kIdle;
  std::size_t record = 0;            ///< index into records_
  std::uint64_t next_frame = 0;      ///< ring position of the next batch
  std::uint64_t session_frames = 0;  ///< batches sent in this session
  std::uint64_t session_events = 0;  ///< events sent in this session
  std::uint64_t scored_events = 0;   ///< events of this session with a verdict
  struct Expect {
    enum class Kind { kHello, kBatch, kBye } kind;
    double sent = 0.0;
  };
  std::deque<Expect> expected;
  /// Session event count through each batch still without a verdict.
  std::deque<std::uint64_t> unscored;

  void close_socket() {
    if (fd >= 0) ::close(fd);
    fd = -1;
    parser = net::FrameParser();
    expected.clear();
  }
};

Generator::Generator(serve::SessionManager& manager, std::uint16_t port,
                     std::vector<LaneSpec> lanes, LoadShape shape,
                     std::string tag)
    : manager_(manager), port_(port), shape_(shape), tag_(std::move(tag)) {
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    auto lane = std::make_unique<Lane>();
    lane->index = i;
    lane->spec = lanes[i];
    lanes_.push_back(std::move(lane));
  }
}

Generator::~Generator() { disconnect(); }

void Generator::disconnect() {
  for (auto& lane : lanes_) {
    lane->close_socket();
    lane->state = Lane::State::kIdle;
  }
}

void Generator::open_session(Lane& lane, double now) {
  if (lane.fd < 0) lane.fd = connect_loopback(port_);
  SessionRecord record;
  record.id = tag_ + "-" + std::to_string(lane.index) + "-" +
              std::to_string(next_session_++);
  record.lane = lane.index;
  record.first_frame = lane.next_frame;
  send_all(lane.fd, hello_frame(lane.spec.model, record.id));
  lane.expected.push_back({Lane::Expect::Kind::kHello, now});
  lane.record = records_.size();
  records_.push_back(std::move(record));
  lane.session_frames = 0;
  lane.session_events = 0;
  lane.scored_events = 0;
  lane.unscored.clear();
  lane.state = Lane::State::kHello;
}

void Generator::connect() {
  if (shape_.batches_per_session > 0) return;  // sessions open in run()
  for (auto& lane_ptr : lanes_) {
    Lane& lane = *lane_ptr;
    open_session(lane, wall_seconds());
    // Long-lived sessions: wait for each HELLO before traffic starts.
    while (lane.state == Lane::State::kHello) {
      pollfd pfd{lane.fd, POLLIN, 0};
      ::poll(&pfd, 1, 1000);
      LoadResult scratch;
      read_replies(lane, wall_seconds(), scratch, nullptr);
      if (scratch.ops.failed > 0 || lane.fd < 0) {
        throw std::runtime_error("perfbench: HELLO refused for " +
                                 lane.spec.model);
      }
    }
  }
}

void Generator::send_batch(Lane& lane, double now, obs::RunProfile* profile) {
  const FrameRing& ring = *lane.spec.ring;
  const std::size_t slot = lane.next_frame % ring.frames.size();
  {
    const obs::ScopedTimer span(profile, "send");
    send_all(lane.fd, ring.frames[slot]);
  }
  lane.expected.push_back({Lane::Expect::Kind::kBatch, now});
  lane.session_events += ring.batches[slot].size();
  lane.unscored.push_back(lane.session_events);
  ++lane.next_frame;
  ++lane.session_frames;
  ++records_[lane.record].frames;
}

void Generator::read_replies(Lane& lane, double now, LoadResult& result,
                             obs::RunProfile* profile) {
  if (lane.fd < 0) return;
  const obs::ScopedTimer span(profile, "ack_read");
  const bool open = recv_available(lane.fd, lane.parser);
  while (auto frame = lane.parser.next()) {
    const bool error_frame = frame->op == net::FrameOp::kError;
    if (lane.expected.empty()) {
      result.ops.add_reply(frame->payload, true);  // unsolicited frame
      std::cerr << "perfbench: unexpected frame: " << frame->payload << "\n";
      continue;
    }
    const Lane::Expect expect = lane.expected.front();
    lane.expected.pop_front();
    result.ops.add_reply(frame->payload, error_frame);
    const bool ok = !error_frame && frame->payload.rfind("OK", 0) == 0;
    if (!ok) std::cerr << "perfbench: server replied: " << frame->payload << "\n";
    switch (expect.kind) {
      case Lane::Expect::Kind::kHello:
        lane.state = ok ? Lane::State::kRunning : Lane::State::kIdle;
        if (!ok) {
          lane.close_socket();
          return;
        }
        records_[lane.record].opened = true;
        break;
      case Lane::Expect::Kind::kBatch:
        if (ok) {
          result.ack_us.push_back((now - expect.sent) * 1e6);
        }
        break;
      case Lane::Expect::Kind::kBye:
        lane.close_socket();
        lane.state = Lane::State::kIdle;
        return;
    }
  }
  if (!lane.parser.error().empty() || !open) {
    // A framing error or a dropped connection loses whatever was pending.
    result.ops.add_reply(lane.parser.error(), true);
    std::cerr << "perfbench: connection lost on lane " << lane.index << "\n";
    lane.close_socket();
    lane.unscored.clear();
    lane.state = Lane::State::kIdle;
  }
}

void Generator::poll_verdicts(LoadResult& result, obs::RunProfile* profile) {
  for (auto& lane_ptr : lanes_) {
    Lane& lane = *lane_ptr;
    if (lane.unscored.empty()) continue;
    std::optional<serve::SessionStats> stats;
    {
      const obs::ScopedTimer span(profile, "verdict_poll");
      stats = try_stats(records_[lane.record].id);
    }
    if (!stats) continue;  // mid-eviction; look again at the next poll
    const std::uint64_t processed = stats->processed;
    while (!lane.unscored.empty() && lane.unscored.front() <= processed) {
      result.events += lane.unscored.front() - lane.scored_events;
      lane.scored_events = lane.unscored.front();
      lane.unscored.pop_front();
    }
  }
}

std::optional<serve::SessionStats> Generator::try_stats(const std::string& id) {
  try {
    return manager_.session_stats(id);
  } catch (const std::invalid_argument&) {
    // SessionManager erases an evicted session from the resident map before
    // its snapshot reaches the store (and a restore takes the snapshot
    // before re-inserting), so a live session can briefly be in neither.
    ++stats_misses_;
    return std::nullopt;
  }
}

serve::SessionStats Generator::final_stats(const std::string& id) {
  const double give_up = wall_seconds() + 1.0;
  for (;;) {
    if (auto stats = try_stats(id)) return *stats;
    if (wall_seconds() > give_up) {
      throw std::runtime_error("perfbench: session " + id + " vanished");
    }
    std::this_thread::yield();
  }
}

void Generator::finish_session(Lane& lane, LoadResult& result) {
  SessionRecord& record = records_[lane.record];
  record.stats = final_stats(record.id);
  result.ops.add_events(lane.session_events, record.stats.rejected,
                        record.stats.dropped, record.stats.evicted_dropped);
  send_all(lane.fd, net::encode_frame(net::FrameOp::kBye, 0, ""));
  lane.expected.push_back({Lane::Expect::Kind::kBye, wall_seconds()});
  lane.state = Lane::State::kBye;
}

void Generator::finish_open_sessions(OpCounts& ops) {
  manager_.drain();
  for (auto& lane_ptr : lanes_) {
    Lane& lane = *lane_ptr;
    if (lane.state != Lane::State::kRunning) continue;
    SessionRecord& record = records_[lane.record];
    record.stats = final_stats(record.id);
    ops.add_events(lane.session_events, record.stats.rejected,
                   record.stats.dropped, record.stats.evicted_dropped);
  }
}

bool Generator::idle() const {
  for (const auto& lane : lanes_) {
    if (!lane->unscored.empty() || !lane->expected.empty()) return false;
    if (lane->state == Lane::State::kHello || lane->state == Lane::State::kBye) {
      return false;
    }
  }
  return true;
}

LoadResult Generator::run(double seconds, std::uint64_t batch_budget,
                          obs::RunProfile* profile) {
  // Sub-microsecond timer slack: the generator's timed waits must wake on
  // time, or its own oversleep would read as server latency.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const ThreadMask placement({kGeneratorCpu});
  LoadResult result;
  const bool churn = shape_.batches_per_session > 0;

  const CpuSample cpu_begin = sample_cpu(excluded_, workers_);
  const double start = wall_seconds();
  result.marks.push_back({start, 0, cpu_begin});
  double next_mark = start + kSliceSeconds;
  const double deadline = seconds > 0.0 ? start + seconds
                                        : std::numeric_limits<double>::infinity();
  double stop_time = std::numeric_limits<double>::infinity();
  double last_verdict = start;
  double next_poll = start + shape_.poll_interval_s;
  double next_depth_sample = start;
  std::uint64_t batches = 0;
  bool sending = true;
  std::vector<pollfd> fds;

  for (;;) {
    double now = wall_seconds();
    if (sending && (now >= deadline ||
                    (batch_budget > 0 && batches >= batch_budget))) {
      sending = false;
      stop_time = now;
    }

    for (auto& lane_ptr : lanes_) {
      Lane& lane = *lane_ptr;
      if (lane.state == Lane::State::kIdle && churn && sending) {
        open_session(lane, now);
      } else if (lane.state == Lane::State::kRunning) {
        const bool session_over =
            churn && (!sending || lane.session_frames >= shape_.batches_per_session);
        if (!session_over && sending && lane.unscored.size() < shape_.max_unscored) {
          send_batch(lane, now, profile);
          ++batches;
        }
        if (session_over && lane.unscored.empty() && lane.expected.empty()) {
          finish_session(lane, result);
        }
      }
    }

    now = wall_seconds();
    for (auto& lane : lanes_) read_replies(*lane, now, result, profile);

    bool pending = false;
    for (const auto& lane : lanes_) pending = pending || !lane->unscored.empty();
    if (pending && now >= next_poll) {
      result.late_us.push_back((now - next_poll) * 1e6);
      const std::uint64_t before = result.events;
      poll_verdicts(result, profile);
      if (result.events != before) last_verdict = now;
      next_poll = now + shape_.poll_interval_s;
    } else if (!pending) {
      next_poll = now + shape_.poll_interval_s;
    }
    if (sending && now >= next_mark) {
      result.marks.push_back({now, result.events, sample_cpu(excluded_, workers_)});
      next_mark += kSliceSeconds;
    }
    if (now >= next_depth_sample) {
      std::size_t depth = 0;
      for (const auto& shard : manager_.shard_status()) depth += shard.queue_depth;
      result.queue_depth_max = std::max(result.queue_depth_max, depth);
      next_depth_sample = now + 10e-3;
    }

    if (!sending && idle()) break;
    if (!sending && now > stop_time + 30.0) {
      result.timed_out = true;
      break;
    }

    // Sleep until the next verdict poll, waking early for replies on any
    // connection.
    const double wake = next_poll;
    fds.clear();
    for (const auto& lane : lanes_) {
      if (lane->fd >= 0) fds.push_back({lane->fd, POLLIN, 0});
    }
    const double wait = wake - wall_seconds();
    if (wait > 0.0) {
      timespec ts{};
      ts.tv_sec = static_cast<time_t>(wait);
      ts.tv_nsec = static_cast<long>((wait - static_cast<double>(ts.tv_sec)) * 1e9);
      ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    }
  }

  const CpuSample cpu_end = sample_cpu(excluded_, workers_);
  result.elapsed_s = last_verdict - start;
  result.server_cpu_s = server_cpu_seconds(cpu_begin, cpu_end);
  result.client_cpu_s = cpu_end.generator - cpu_begin.generator;
  return result;
}

void verify_sessions(serve::ModelRegistry& registry,
                     const std::vector<SessionRecord>& records,
                     const std::vector<LaneSpec>& lanes,
                     const core::MonitorOptions& options, std::size_t threads,
                     OpCounts& ops) {
  std::vector<std::shared_ptr<const core::Detector>> detectors;
  std::vector<std::shared_ptr<const core::ScoringKernel>> kernels;
  for (const LaneSpec& lane : lanes) {
    detectors.push_back(registry.require(lane.model));
    kernels.push_back(core::ScoringKernel::compile(*detectors.back()));
  }
  // The replay scores through the other path than the server, so an error
  // in either cannot agree with itself: the reference recursion when the
  // server ran the compiled kernel, the kernel when decision audit routed
  // the server through the reference (OnlineMonitor::on_event). The two
  // are bit-exact, so windows, flagged and alarms must match exactly.
  core::MonitorOptions replay_options = options;
  const bool server_on_reference =
      options.decisions.enabled && options.decisions.ring_capacity > 0;
  replay_options.decisions.enabled = !server_on_reference;
  replay_options.decisions.sample_every = 0;
  replay_options.decisions.always_on_flagged = false;
  replay_options.decisions.ring_capacity = 1;
  std::vector<char> matched(records.size(), 1);
  const auto check = [&](std::size_t i) {
    const SessionRecord& record = records[i];
    if (!record.opened) return;  // its HELLO failed and was counted then
    const FrameRing& ring = *lanes[record.lane].ring;
    core::OnlineMonitor monitor(*detectors[record.lane], nullptr, replay_options, {},
                                kernels[record.lane]);
    std::uint64_t events = 0;
    for (std::uint64_t f = 0; f < record.frames; ++f) {
      for (const auto& event :
           ring.batches[(record.first_frame + f) % ring.batches.size()]) {
        monitor.on_event(event);
        ++events;
      }
    }
    const core::MonitorStats& want = monitor.stats();
    const core::MonitorStats& got = record.stats.monitor;
    matched[i] = want.windows_scored == got.windows_scored &&
                 want.windows_flagged == got.windows_flagged &&
                 want.alarms == got.alarms && record.stats.processed == events;
    if (!matched[i]) {
      std::cerr << "perfbench: verdict mismatch on " << record.id
                << ": server windows=" << got.windows_scored
                << " flagged=" << got.windows_flagged << " alarms=" << got.alarms
                << " processed=" << record.stats.processed
                << ", replay windows=" << want.windows_scored
                << " flagged=" << want.windows_flagged
                << " alarms=" << want.alarms << " events=" << events << "\n";
    }
  };
  std::vector<std::thread> workers;
  const std::size_t n = std::max<std::size_t>(1, threads);
  for (std::size_t t = 0; t < n; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = t; i < records.size(); i += n) check(i);
    });
  }
  for (auto& worker : workers) worker.join();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].opened) ops.add_check(matched[i] != 0);
  }
}

}  // namespace perfbench
