// The four workloads behind one interface (bench.hpp's Workload).
#pragma once

#include <cstdint>
#include <memory>
#include <sys/types.h>

#include "bench.hpp"

namespace slackbench {

/// `inproc` (durable = false) and `durable`: a closed loop into an embedded
/// gateway. For durable, the constructor prepares the commit-log history
/// and reports how long that took through `prep_s`.
[[nodiscard]] std::unique_ptr<Workload> make_gateway_loop(const Stream& stream,
                                                          const WorkDir& work,
                                                          bool durable,
                                                          double* prep_s);

/// A child process that hosts AdmissionServer instances on request. It is
/// forked before the job stream exists, so the server's CPU, context
/// switches and RSS exclude the load generator and its buffers.
class ServerHost {
 public:
  ServerHost();
  /// Closes the command pipe and waits for the child to exit.
  ~ServerHost();
  ServerHost(const ServerHost&) = delete;
  ServerHost& operator=(const ServerHost&) = delete;

  /// Builds a fresh server; returns once it listens, with its port.
  std::uint16_t start();
  /// Marks the start of the measured window.
  void begin();
  /// The server's usage since begin() (peak RSS: its high-water mark).
  ProcessUsage end();
  /// Destroys the server.
  void stop();

 private:
  struct Reply;
  Reply call(char command);

  pid_t pid_ = -1;
  int command_fd_ = -1;
  int reply_fd_ = -1;
};

/// `wire-batch`: one connection, one thread, SUBMIT_BATCH(256) frames with
/// at most 4096 jobs in flight.
[[nodiscard]] std::unique_ptr<Workload> make_wire_batch(const Stream& stream,
                                                        const WorkDir& work,
                                                        ServerHost& host);

/// `wire-open`: one connection, a sender and a receiver thread; one SUBMIT
/// per job sent at its due time, light rate first, then the loaded rate.
[[nodiscard]] std::unique_ptr<Workload> make_wire_open(const Stream& stream,
                                                       const WorkDir& work,
                                                       ServerHost& host);

/// Closed-loop rounds end with this many jobs submitted one at a time, each
/// waited for: the lone-job latency. (A closed loop's own latency is only
/// its window divided by its throughput.)
inline constexpr std::size_t kLoneJobs = 1024;

/// Jobs per round of each workload (wire-open: light + loaded step).
inline constexpr std::size_t kInprocJobs = std::size_t{1} << 20;
inline constexpr std::size_t kDurableHistoryJobs = std::size_t{1} << 18;
inline constexpr std::size_t kDurableJobs = std::size_t{1} << 19;
inline constexpr std::size_t kWireBatchJobs = std::size_t{1} << 19;
inline constexpr double kOpenLightRate = 50'000.0;   ///< jobs/s
inline constexpr double kOpenLoadedRate = 200'000.0; ///< jobs/s
inline constexpr std::size_t kOpenLightJobs = 25'000;    ///< 0.5 s
inline constexpr std::size_t kOpenLoadedJobs = 100'000;  ///< 0.5 s

}  // namespace slackbench
