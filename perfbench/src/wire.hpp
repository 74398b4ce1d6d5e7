// The load generator: one thread driving CMKB connections over loopback
// against an in-process EpollServer + SessionManager wired as cmarkovd
// wires them.
//
// The loop is closed and paces on verdicts, not acks (CMKB acks at
// admission): a lane sends its next batch only while fewer than
// `max_unscored` of its batches lack a verdict, read from outside through
// SessionManager::session_stats. With `batches_per_session` set, every lane
// cycles connect -> HELLO (new id) -> batches -> BYE, so session lifecycle
// runs at a fixed rate per event.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "host.hpp"
#include "inputs.hpp"
#include "src/obs/run_profile.hpp"
#include "src/serve/net/epoll_server.hpp"
#include "src/serve/service.hpp"
#include "stats.hpp"

namespace perfbench {

/// The program under test, started the way cmarkovd starts it.
struct Server {
  std::unique_ptr<cmarkov::serve::CmarkovService> service;
  std::unique_ptr<cmarkov::serve::net::EpollServer> net;
  /// Threads the SessionManager started (pinned to kWorkerCpu) and the
  /// EpollServer started (pinned to kLoopCpu).
  std::vector<int> worker_tids;
  std::vector<int> net_tids;

  cmarkov::serve::SessionManager& sessions() { return service->sessions(); }
  std::uint16_t port() const { return net->port(); }
  /// Value of a counter on the manager's registry (0 when never touched).
  std::uint64_t counter(const char* name);
};

Server start_server(const cmarkov::serve::ServiceConfig& config,
                    std::vector<std::pair<std::string, cmarkov::core::Detector>> models);

/// Length of the slices the measured phase is cut into (LoadResult::marks).
inline constexpr double kSliceSeconds = 0.5;

struct LoadShape {
  /// 0 = one long-lived session per lane; otherwise each session sends this
  /// many batches and says BYE, and the lane reconnects with a new id.
  std::size_t batches_per_session = 0;
  /// Period of the verdict poll (session_stats) while batches are pending.
  double poll_interval_s = 100e-6;
  /// Batches a lane may have in flight without a verdict.
  std::size_t max_unscored = 2;
};

/// One connection's traffic: which model it speaks to and its frames.
struct LaneSpec {
  std::string model;
  const FrameRing* ring = nullptr;
};

/// One session the generator opened, with the server's verdict counters
/// read once all its events had a verdict.
struct SessionRecord {
  std::string id;
  std::size_t lane = 0;
  std::uint64_t first_frame = 0;  ///< ring position of its first batch
  std::uint64_t frames = 0;
  bool opened = false;  ///< its HELLO was accepted
  cmarkov::serve::SessionStats stats;
};

struct LoadResult {
  /// Marks at the start and every kSliceSeconds of the sending phase.
  std::vector<SliceMark> marks;
  double elapsed_s = 0.0;         ///< first send to last verdict observed
  std::uint64_t events = 0;       ///< events that received a verdict
  double server_cpu_s = 0.0;      ///< server_cpu_seconds over the phase
  double client_cpu_s = 0.0;      ///< the generator thread's CPU
  std::vector<double> ack_us;      ///< EV-batch send -> its ack frame
  std::vector<double> late_us;     ///< verdict polls behind their due time
  std::size_t queue_depth_max = 0;
  OpCounts ops;                    ///< replies and events of this phase
  bool timed_out = false;          ///< verdicts still missing at the end
};

class Generator {
 public:
  Generator(cmarkov::serve::SessionManager& manager, std::uint16_t port,
            std::vector<LaneSpec> lanes, LoadShape shape, std::string tag);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Connects every lane and completes its HELLO (long-lived sessions) or
  /// leaves the lane to open its first session in run().
  void connect();

  /// The benchmark's own threads besides the generator, whose CPU time is
  /// not server CPU.
  void exclude(std::vector<int> tids) { excluded_ = std::move(tids); }
  /// The program's scoring worker threads, whose share of server CPU is
  /// sampled on its own (SliceMark::cpu.worker).
  void track_workers(std::vector<int> tids) { workers_ = std::move(tids); }

  /// Drives the load for `seconds` or until `batch_budget` batches were
  /// sent (0 = no budget), then waits for every verdict. A non-null
  /// profile records a span around each send, reply read and verdict poll.
  LoadResult run(double seconds, std::uint64_t batch_budget,
                 cmarkov::obs::RunProfile* profile);

  /// Drains the server, then reads the final counters of the long-lived
  /// sessions and accounts their events in `ops` (call after run).
  void finish_open_sessions(OpCounts& ops);

  /// Every session opened so far; closed sessions carry their counters.
  const std::vector<SessionRecord>& sessions() const { return records_; }

  /// Closes all sockets (the server closes their sessions).
  void disconnect();

  /// Stats reads that found a live session in neither the resident map nor
  /// the snapshot store (it was mid-eviction or mid-restore).
  std::uint64_t stats_misses() const { return stats_misses_; }

 private:
  struct Lane;

  std::optional<cmarkov::serve::SessionStats> try_stats(const std::string& id);
  cmarkov::serve::SessionStats final_stats(const std::string& id);

  void open_session(Lane& lane, double now);
  void send_batch(Lane& lane, double now, cmarkov::obs::RunProfile* profile);
  void read_replies(Lane& lane, double now, LoadResult& result,
                    cmarkov::obs::RunProfile* profile);
  void poll_verdicts(LoadResult& result, cmarkov::obs::RunProfile* profile);
  void finish_session(Lane& lane, LoadResult& result);
  bool idle() const;

  cmarkov::serve::SessionManager& manager_;
  std::uint16_t port_;
  LoadShape shape_;
  std::string tag_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<SessionRecord> records_;
  std::uint64_t next_session_ = 0;
  std::uint64_t stats_misses_ = 0;
  std::vector<int> excluded_;
  std::vector<int> workers_;
};

/// Replays every recorded session's exact event stream through an
/// in-process core::OnlineMonitor with `options`, scoring through the other
/// path than the server did (reference recursion or compiled kernel), and
/// compares windows_scored, windows_flagged, alarms and processed with what
/// the server reported. One check per session goes into `ops`.
void verify_sessions(cmarkov::serve::ModelRegistry& registry,
                     const std::vector<SessionRecord>& records,
                     const std::vector<LaneSpec>& lanes,
                     const cmarkov::core::MonitorOptions& options,
                     std::size_t threads, OpCounts& ops);

}  // namespace perfbench
