// The wire workloads: an AdmissionServer in a child process, driven over
// loopback TCP with the public codec (net/protocol.hpp).
//
//   wire-batch  closed loop, 1 connection, 1 thread, SUBMIT_BATCH(256)
//               frames, <= 4096 jobs in flight. Per-frame costs dominate.
//   wire-open   open loop, 1 connection: a sender writes one SUBMIT per job
//               at the job's due time (every job already due goes out in one
//               write), a receiver decodes DECISIONs. Latency is timed from
//               the due time, so a stall also delays every later job. A
//               light step gives the median, a loaded step the p99; the
//               /metrics page is scraped once a second beside the traffic.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "net/admission_client.hpp"
#include "net/admission_server.hpp"
#include "net/protocol.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace slackbench {

using namespace slacksched;

// --- the server host ----------------------------------------------------------

struct ServerHost::Reply {
  std::int32_t status = 0;  ///< 0 ok, else the child failed
  std::uint16_t port = 0;
  ProcessUsage usage;
};

namespace {

bool read_full(int fd, void* data, std::size_t n) {
  auto* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

bool write_full(int fd, const void* data, std::size_t n) {
  const auto* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t put = ::write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

}  // namespace

ServerHost::ServerHost() {
  int command[2];
  int reply[2];
  if (::pipe2(command, O_CLOEXEC) != 0 || ::pipe2(reply, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // The host never outlives the benchmark.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    ::close(command[1]);
    ::close(reply[0]);
    std::unique_ptr<net::AdmissionServer> server;
    ProcessUsage base;
    char op = 0;
    int code = 0;
    while (read_full(command[0], &op, 1)) {
      Reply out;
      try {
        if (op == 'S') {
          net::AdmissionServerConfig config;
          config.loops = 1;
          config.gateway = gateway_config();
          server = std::make_unique<net::AdmissionServer>(config,
                                                          threshold_factory());
          out.port = server->port();
        } else if (op == 'B') {
          base = process_usage();
        } else if (op == 'E') {
          const ProcessUsage now = process_usage();
          out.usage = {now.cpu_us - base.cpu_us,
                       now.ctx_switches - base.ctx_switches, now.max_rss_kb};
        } else if (op == 'Q') {
          server.reset();
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "server host: %s\n", e.what());
        out.status = 1;
        code = 1;
      }
      if (!write_full(reply[1], &out, sizeof(out)) || code != 0) break;
    }
    server.reset();
    ::_exit(code);
  }
  ::close(command[0]);
  ::close(reply[1]);
  command_fd_ = command[1];
  reply_fd_ = reply[0];
}

ServerHost::~ServerHost() {
  ::close(command_fd_);  // EOF: the child tears down and exits
  ::close(reply_fd_);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

ServerHost::Reply ServerHost::call(char command) {
  Reply reply;
  if (!write_full(command_fd_, &command, 1) ||
      !read_full(reply_fd_, &reply, sizeof(reply)) || reply.status != 0) {
    throw std::runtime_error(std::string("server host failed on '") + command +
                             "'");
  }
  return reply;
}

std::uint16_t ServerHost::start() { return call('S').port; }
void ServerHost::begin() { (void)call('B'); }
ProcessUsage ServerHost::end() { return call('E').usage; }
void ServerHost::stop() { (void)call('Q'); }

namespace {

// --- one client connection ------------------------------------------------------

class WireConn {
 public:
  explicit WireConn(std::uint16_t port)
      : fd_(net::connect_with_timeout("127.0.0.1", port,
                                      std::chrono::seconds(5))) {}
  ~WireConn() { ::close(fd_); }
  WireConn(const WireConn&) = delete;
  WireConn& operator=(const WireConn&) = delete;

  void send_all(const std::vector<char>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t put = ::send(fd_, bytes.data() + off, bytes.size() - off,
                                 MSG_NOSIGNAL);
      if (put < 0 && errno == EINTR) continue;
      if (put <= 0) throw std::runtime_error("send failed");
      off += static_cast<std::size_t>(put);
    }
    bytes_out += bytes.size();
  }

  /// Blocks for the next bytes from the server and feeds them to `decoder`.
  void recv_into(net::FrameDecoder& decoder) {
    ssize_t got = 0;
    do {
      got = ::recv(fd_, buffer_.data(), buffer_.size(), 0);
    } while (got < 0 && errno == EINTR);
    if (got <= 0) throw std::runtime_error("connection closed by server");
    bytes_in += static_cast<std::uint64_t>(got);
    ++recvs;
    decoder.feed(buffer_.data(), static_cast<std::size_t>(got));
  }

  std::uint64_t bytes_out = 0;  ///< written by the sending thread only
  std::uint64_t bytes_in = 0;   ///< the receiving thread only
  std::uint64_t recvs = 0;

 private:
  int fd_;
  std::vector<char> buffer_ = std::vector<char>(std::size_t{1} << 16);
};

/// Exactly-one-answer bookkeeping of one round, keyed by request id (the
/// job's index in the run).
class ReplyBook {
 public:
  explicit ReplyBook(const Stream& stream)
      : stream_(stream), answers_(stream.run_size(), 0) {}

  /// Consumes one DECISION or REJECT frame; returns its request id, or -1
  /// for a frame that answers nothing.
  std::int64_t take(const net::Frame& frame) {
    std::string why;
    if (frame.type == net::FrameType::kDecision) {
      net::DecisionMsg msg;
      if (!net::parse_decision(frame, msg, &why)) return bad(why);
      if (msg.request_id >= answers_.size()) return bad("unknown request id");
      const Job& job = stream_.run_begin()[msg.request_id];
      if (msg.job_id != job.id) return bad("decision for the wrong job");
      tally.add(job.id, job.proc, msg.outcome == Outcome::kAccepted,
                msg.machine, msg.start);
      ++answers_[msg.request_id];
      ++replies;
      return static_cast<std::int64_t>(msg.request_id);
    }
    if (frame.type == net::FrameType::kReject) {
      net::RejectMsg msg;
      if (!net::parse_reject(frame, msg, &why)) return bad(why);
      if (msg.request_id >= answers_.size()) return bad("unknown request id");
      ++answers_[msg.request_id];
      ++replies;
      ++shed;
      return static_cast<std::int64_t>(msg.request_id);
    }
    if (frame.type == net::FrameType::kError) {
      return bad("server error: " + net::parse_error_message(frame));
    }
    return bad("unexpected frame type");
  }

  /// Hands every complete frame buffered in `decoder` to take() and calls
  /// `on_answer(request id)` for each; returns how many it took. A corrupt
  /// stream or a bad frame stops it and sets `error`.
  template <typename OnAnswer>
  std::uint64_t take_all(net::FrameDecoder& decoder, OnAnswer&& on_answer) {
    std::uint64_t taken = 0;
    net::Frame frame;
    while (true) {
      const auto status = decoder.next(frame);
      if (status == net::FrameDecoder::Status::kNeedMore) return taken;
      if (status == net::FrameDecoder::Status::kError) {
        bad("corrupt stream: " + decoder.error());
        return taken;
      }
      const std::int64_t req = take(frame);
      if (req < 0) return taken;
      ++taken;
      on_answer(static_cast<std::size_t>(req));
    }
  }

  void fill(Observed& seen) const {
    seen.submitted = answers_.size();
    for (const std::uint8_t a : answers_) {
      if (a == 1) {
        ++seen.answered;
      } else {
        ++seen.unanswered;
      }
    }
    seen.answered -= std::min(seen.answered, shed);
    seen.unanswered += shed;
    seen.merged = tally;
    if (!error.empty()) seen.error = error;
  }

  Tally tally;
  std::uint64_t replies = 0;
  std::uint64_t shed = 0;
  std::string error;

 private:
  std::int64_t bad(const std::string& why) {
    if (error.empty()) error = why;
    return -1;
  }

  const Stream& stream_;
  std::vector<std::uint8_t> answers_;
};

/// Sends DRAIN and reads until DRAINED; replies still in flight are
/// consumed by `book`.
void drain(WireConn& conn, net::FrameDecoder& decoder, ReplyBook& book,
           Observed& seen) {
  std::vector<char> bytes;
  net::encode_drain(bytes);
  conn.send_all(bytes);
  while (true) {
    net::Frame frame;
    const auto status = decoder.next(frame);
    if (status == net::FrameDecoder::Status::kError) {
      throw std::runtime_error("corrupt stream: " + decoder.error());
    }
    if (status == net::FrameDecoder::Status::kNeedMore) {
      conn.recv_into(decoder);
      continue;
    }
    if (frame.type != net::FrameType::kDrained) {
      (void)book.take(frame);
      continue;
    }
    net::DrainedMsg msg;
    std::string why;
    if (!net::parse_drained(frame, msg, &why)) throw std::runtime_error(why);
    seen.has_server_totals = true;
    seen.server_submitted = msg.submitted;
    seen.server_accepted = msg.accepted;
    seen.server_accepted_volume = msg.accepted_volume;
    seen.server_clean = msg.clean != 0;
    return;
  }
}

/// Gateway counters from a /metrics page (unlabelled aggregate samples).
void read_metrics_page(const std::string& page, Metrics& layer) {
  std::istringstream in(page);
  std::string line;
  double enqueued = 0.0;
  double batches = 0.0;
  std::vector<double> edges{kAdmitLatencyLo};
  std::vector<double> cumulative;
  const std::string bucket = "slacksched_admit_latency_seconds_bucket{le=\"";
  while (std::getline(in, line)) {
    const auto value = [&] { return std::stod(line.substr(line.rfind(' ') + 1)); };
    if (line.rfind("slacksched_enqueued_total ", 0) == 0) enqueued = value();
    if (line.rfind("slacksched_batches_total ", 0) == 0) batches = value();
    if (line.rfind("slacksched_queue_depth_peak ", 0) == 0) {
      layer["service.peak_queue_depth"] = value();
    }
    if (line.rfind(bucket, 0) == 0 && line.find("+Inf") == std::string::npos) {
      const std::size_t close = line.find('"', bucket.size());
      edges.push_back(std::stod(line.substr(bucket.size(), close - bucket.size())));
      cumulative.push_back(value());
    }
  }
  std::vector<double> counts;
  double below = 0.0;
  for (const double c : cumulative) {
    counts.push_back(c - below);
    below = c;
  }
  layer["service.jobs_per_wake"] = enqueued / std::max(1.0, batches);
  layer["service.admit_p50_us"] = log_bins_quantile_us(edges, counts, 0.50);
  layer["service.admit_p99_us"] = log_bins_quantile_us(edges, counts, 0.99);
}

/// What the measured phase of a round cost the server and the socket.
struct PhaseCost {
  ProcessUsage usage;
  std::uint64_t bytes = 0;  ///< both directions
  std::uint64_t recvs = 0;
  std::uint64_t replies = 0;
  double jobs = 0.0;
};

PhaseCost phase_cost(ServerHost& host, const WireConn& conn,
                     const ReplyBook& book, std::size_t jobs) {
  return {host.end(), conn.bytes_in + conn.bytes_out, conn.recvs,
          book.replies, static_cast<double>(jobs)};
}

/// Per-round results shared by both wire workloads.
void finish_round(Round& r, const Stream& stream, const ReplyBook& book,
                  const PhaseCost& phase) {
  book.fill(r.seen);
  r.e2e["accepted_load_frac"] =
      r.seen.server_accepted_volume / stream.offered_volume;
  r.e2e["server_cpu_us_per_job"] = phase.usage.cpu_us / phase.jobs;
  r.e2e["peak_rss_mb"] = phase.usage.max_rss_kb / 1024.0;
  r.layer["process.ctx_switches_per_job"] =
      phase.usage.ctx_switches / phase.jobs;
  r.layer["net.replies_per_recv"] =
      static_cast<double>(phase.replies) /
      static_cast<double>(std::max<std::uint64_t>(1, phase.recvs));
  r.layer["net.wire_bytes_per_job"] =
      static_cast<double>(phase.bytes) / phase.jobs;
}

/// Traced rounds: the gateway's counters from one /metrics scrape, taken
/// when the measured phase ends.
void scrape_layers(Round& r, std::uint16_t port, SpanLog& log) {
  if (!r.traced) return;
  const std::int64_t t0 = now_ns();
  const std::string page = net::http_get_metrics("127.0.0.1", port);
  log.add("service.metrics_scrape", t0, now_ns(), page.size());
  read_metrics_page(page, r.layer);
}

// --- wire-batch ---------------------------------------------------------------

constexpr std::size_t kBatchWindow = 4096;

class WireBatch final : public Workload {
 public:
  WireBatch(const Stream& stream, const WorkDir& work, ServerHost& host)
      : stream_(stream), work_(work), host_(host) {}

  Round round(SpanLog& log) override {
    Round r;
    r.traced = log.enabled();
    const std::size_t n = stream_.run_size();
    const Job* jobs = stream_.run_begin();

    const std::int64_t setup0 = now_ns();
    const std::uint16_t port = host_.start();
    r.e2e["setup_s"] = static_cast<double>(now_ns() - setup0) / 1e9;

    const std::size_t bulk = n - kLoneJobs;
    ReplyBook book(stream_);
    net::FrameDecoder decoder;
    std::vector<double> latency_us;
    std::vector<char> frame_bytes;
    {
      WireConn conn(port);
      host_.begin();
      const std::uint32_t round_span = log.open("round", 0, n);
      // Bulk phase: the closed loop, which gives throughput and CPU.
      const std::int64_t t_first = now_ns();
      std::int64_t t_last = t_first;
      std::size_t next = 0;
      while (book.replies < bulk && book.error.empty()) {
        while (next < bulk &&
               next - book.replies + kSubmitBatch <= kBatchWindow) {
          const std::size_t k = std::min(kSubmitBatch, bulk - next);
          const std::int64_t t0 = now_ns();
          frame_bytes.clear();
          net::encode_submit_batch(frame_bytes, next,
                                   std::span<const Job>(jobs + next, k));
          const std::int64_t t1 = now_ns();
          conn.send_all(frame_bytes);
          if (log.enabled()) {
            log.add("net.encode", t0, t1, next, k, round_span);
            log.add("ingest.submit", t1, now_ns(), next, k, round_span);
          }
          next += k;
        }
        conn.recv_into(decoder);
        const std::int64_t arrived = now_ns();
        t_last = arrived;
        const std::uint64_t decoded = book.take_all(decoder, [](std::size_t) {});
        if (log.enabled()) {
          log.add("net.decode", arrived, now_ns(), book.replies, decoded,
                  round_span);
        }
      }
      const PhaseCost phase = phase_cost(host_, conn, book, bulk);
      scrape_layers(r, port, log);
      // Lone phase: one SUBMIT at a time, each waited for.
      for (std::size_t i = bulk; i < n && book.error.empty(); ++i) {
        const std::int64_t t0 = now_ns();
        frame_bytes.clear();
        net::encode_submit(frame_bytes, {i, jobs[i]});
        conn.send_all(frame_bytes);
        while (book.replies <= i && book.error.empty()) {
          conn.recv_into(decoder);
          (void)book.take_all(decoder, [](std::size_t) {});
        }
        latency_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      }
      log.close(round_span);
      if (book.error.empty()) drain(conn, decoder, book, r.seen);
      r.e2e["jobs_per_s"] = static_cast<double>(bulk) /
                            (static_cast<double>(t_last - t_first) / 1e9);
      r.e2e["decision_p50_us"] = quantile(latency_us, 0.50);
      r.e2e["decision_p99_us"] = quantile(latency_us, 0.99);
      finish_round(r, stream_, book, phase);
    }
    host_.stop();
    return r;
  }

  void layer_probes(const Reference& ref, Metrics& layer,
                    SpanLog& log) override {
    probe_storage(stream_, ref, work_, std::string(), layer, log);
  }

 private:
  const Stream& stream_;
  WorkDir work_;
  ServerHost& host_;
};

// --- wire-open ----------------------------------------------------------------

class WireOpen final : public Workload {
 public:
  WireOpen(const Stream& stream, const WorkDir& work, ServerHost& host)
      : stream_(stream), work_(work), host_(host) {
    // Due offsets: the stream's own (Poisson) release gaps, rescaled so the
    // light step runs at kOpenLightRate and the rest at kOpenLoadedRate.
    const std::size_t n = stream_.run_size();
    const Job* jobs = stream_.run_begin();
    const double sim_rate = static_cast<double>(n - 1) /
                            (jobs[n - 1].release - jobs[0].release);
    due_offset_ns_.resize(n);
    double t = 0.0;
    for (std::size_t i = 1; i < n; ++i) {
      const double rate = i <= kOpenLightJobs ? kOpenLightRate : kOpenLoadedRate;
      t += (jobs[i].release - jobs[i - 1].release) * sim_rate / rate;
      due_offset_ns_[i] = static_cast<std::int64_t>(t * 1e9);
    }
  }

  Round round(SpanLog& log) override {
    Round r;
    r.traced = log.enabled();
    const std::size_t n = stream_.run_size();

    const std::int64_t setup0 = now_ns();
    const std::uint16_t port = host_.start();
    r.e2e["setup_s"] = static_cast<double>(now_ns() - setup0) / 1e9;

    ReplyBook book(stream_);
    net::FrameDecoder decoder;
    std::vector<double> light_us;
    std::vector<double> loaded_us;
    light_us.reserve(kOpenLightJobs);
    loaded_us.reserve(n);
    std::vector<double> late_us;
    late_us.reserve(n);
    SpanLog sender_log(2, log.enabled());
    SpanLog receiver_log(3, log.enabled());
    {
      WireConn conn(port);
      host_.begin();
      const std::uint32_t round_span = log.open("round", 0, n);
      // Start a little in the future so the first due job is not late.
      const std::int64_t t0 = now_ns() + 2'000'000;
      std::atomic<bool> receiving{true};
      std::int64_t t_last = t0;

      std::string send_error;
      std::thread sender([&] {
        try {
          send_due(t0, conn, late_us, sender_log, round_span);
        } catch (const std::exception& e) {
          send_error = e.what();
        }
      });
      std::thread receiver([&] {
        try {
          while (book.replies < n && book.error.empty()) {
            conn.recv_into(decoder);
            const std::int64_t arrived = now_ns();
            t_last = arrived;
            const std::uint64_t decoded =
                book.take_all(decoder, [&](std::size_t req) {
                  const double us =
                      static_cast<double>(arrived - t0 - due_offset_ns_[req]) /
                      1e3;
                  (req < kOpenLightJobs ? light_us : loaded_us).push_back(us);
                });
            if (receiver_log.enabled()) {
              receiver_log.add("net.decode", arrived, now_ns(), book.replies,
                               decoded, round_span);
            }
          }
        } catch (const std::exception& e) {
          book.error = e.what();
        }
        receiving.store(false);
      });
      // One /metrics scrape per second beside the traffic.
      std::int64_t next_scrape = t0 + 1'000'000'000;
      while (receiving.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (now_ns() < next_scrape) continue;
        const std::int64_t s0 = now_ns();
        const std::string page = net::http_get_metrics("127.0.0.1", port);
        log.add("service.metrics_scrape", s0, now_ns(), page.size(), 1,
                round_span);
        next_scrape += 1'000'000'000;
      }
      sender.join();
      receiver.join();
      if (!send_error.empty() && book.error.empty()) book.error = send_error;
      const PhaseCost phase = phase_cost(host_, conn, book, n);
      log.close(round_span);
      if (book.error.empty()) drain(conn, decoder, book, r.seen);

      r.e2e["jobs_per_s"] =
          static_cast<double>(n) / (static_cast<double>(t_last - t0) / 1e9);
      r.e2e["decision_p50_us"] = quantile(light_us, 0.50);
      r.e2e["decision_p99_us"] = quantile(loaded_us, 0.99);
      // Validity guard: how late the sender ran against the due schedule.
      r.notes["loadgen.late_p99_us"] = quantile(late_us, 0.99);
      finish_round(r, stream_, book, phase);
      // After DRAIN the page keeps serving the round's final counters.
      scrape_layers(r, port, log);
    }
    host_.stop();
    spans_.push_back(std::move(sender_log));
    spans_.push_back(std::move(receiver_log));
    return r;
  }

  void layer_probes(const Reference& ref, Metrics& layer,
                    SpanLog& log) override {
    probe_storage(stream_, ref, work_, std::string(), layer, log);
  }

  /// The sender thread: sleeps until the next job is due, then writes every
  /// job already due (one SUBMIT frame each) in one write.
  void send_due(std::int64_t t0, WireConn& conn, std::vector<double>& late_us,
                SpanLog& log, std::uint32_t round_span) const {
    const std::size_t n = stream_.run_size();
    const Job* jobs = stream_.run_begin();
    std::vector<char> bytes;
    std::size_t i = 0;
    while (i < n) {
      const std::int64_t due = t0 + due_offset_ns_[i];
      const std::int64_t now = now_ns();
      if (due > now) {
        const timespec ts{static_cast<time_t>(due / 1'000'000'000),
                          static_cast<long>(due % 1'000'000'000)};
        clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr);
        continue;
      }
      bytes.clear();
      const std::size_t first = i;
      while (i < n && t0 + due_offset_ns_[i] <= now) {
        net::encode_submit(bytes, {i, jobs[i]});
        late_us.push_back(static_cast<double>(now - t0 - due_offset_ns_[i]) /
                          1e3);
        ++i;
      }
      const std::int64_t encoded = now_ns();
      conn.send_all(bytes);
      if (log.enabled()) {
        log.add("net.encode", now, encoded, first, i - first, round_span);
        log.add("ingest.submit", encoded, now_ns(), first, i - first,
                round_span);
      }
    }
  }

  [[nodiscard]] std::vector<const SpanLog*> thread_logs() const override {
    std::vector<const SpanLog*> logs;
    for (const SpanLog& l : spans_) logs.push_back(&l);
    return logs;
  }

 private:
  const Stream& stream_;
  WorkDir work_;
  ServerHost& host_;
  std::vector<std::int64_t> due_offset_ns_;
  std::vector<SpanLog> spans_;
};

}  // namespace

std::unique_ptr<Workload> make_wire_batch(const Stream& stream,
                                          const WorkDir& work,
                                          ServerHost& host) {
  return std::make_unique<WireBatch>(stream, work, host);
}

std::unique_ptr<Workload> make_wire_open(const Stream& stream,
                                         const WorkDir& work,
                                         ServerHost& host) {
  return std::make_unique<WireOpen>(stream, work, host);
}

}  // namespace slackbench
