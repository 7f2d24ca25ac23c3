// Loopback end-to-end coverage of the networked admission front end:
// the wire path (AdmissionClient -> AdmissionServer -> gateway -> shard
// -> decision hook -> DECISION frame) must be observationally identical
// to the in-process engine, drain must hand back exactly the counters
// AdmissionGateway::finish() reports, the HTTP metrics page must agree
// with those counters after quiesce, and protocol violations must be
// answered with an ERROR frame and a closed connection — never a hang,
// never a silent drop.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "baselines/greedy.hpp"
#include "common/expects.hpp"
#include "core/threshold.hpp"
#include "net/admission_client.hpp"
#include "net/admission_server.hpp"
#include "sched/engine.hpp"
#include "sched/online.hpp"
#include "workload/generators.hpp"

namespace slacksched::net {
namespace {

Instance test_instance(std::size_t n, std::uint64_t seed) {
  WorkloadConfig config;
  config.n = n;
  config.eps = 0.1;
  config.arrival_rate = 2.0;
  config.seed = seed;
  return generate_workload(config);
}

AdmissionServerConfig loopback_config(std::size_t queue_capacity) {
  AdmissionServerConfig config;
  config.gateway.shards = 1;
  config.gateway.routing = RoutingPolicy::kRoundRobin;
  // The lock-free ring requires a power-of-two bound; round instance
  // sizes up rather than sprinkling bit_ceil over every call site.
  config.gateway.queue_capacity = std::bit_ceil(queue_capacity);
  return config;
}

/// Extracts the value of an unlabelled sample from an exposition page.
double metric_value(const std::string& page, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const std::size_t pos = page.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::stod(page.substr(pos + needle.size()));
}

// ---------- equivalence with the in-process engine ----------

TEST(NetServer, LoopbackDecisionStreamEqualsRunOnline) {
  const Instance instance = test_instance(400, 2026);
  ThresholdScheduler reference(0.1, 4);
  const RunResult engine = run_online(reference, instance, RunOptions{});

  AdmissionServerConfig config = loopback_config(instance.size());
  AdmissionServer server(config, [](int) {
    return std::make_unique<ThresholdScheduler>(0.1, 4);
  });
  AdmissionClient client("127.0.0.1", server.port());

  // Pipeline everything, then read replies: a single connection into a
  // single shard preserves submission order end to end.
  std::vector<std::uint64_t> request_ids;
  for (const Job& job : instance.jobs()) {
    request_ids.push_back(client.submit(job));
  }
  std::vector<DecisionReply> replies;
  for (std::size_t i = 0; i < instance.size(); ++i) {
    replies.push_back(client.wait_reply());
  }
  EXPECT_EQ(client.outstanding(), 0u);

  ASSERT_EQ(engine.decisions.size(), instance.size());
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const DecisionRecord& expected = engine.decisions[i];
    const DecisionReply& got = replies[i];
    EXPECT_EQ(got.request_id, request_ids[i]) << "reply order broke at " << i;
    EXPECT_EQ(got.job_id, expected.job.id);
    ASSERT_TRUE(got.is_decision());
    EXPECT_EQ(got.outcome == Outcome::kAccepted, expected.decision.accepted);
    if (expected.decision.accepted) {
      EXPECT_EQ(got.machine, expected.decision.machine);
      EXPECT_EQ(got.start, expected.decision.start);  // bit-exact doubles
    }
  }

  // The DRAINED counters are the engine's RunMetrics, bit for bit.
  const DrainedMsg drained = client.drain();
  EXPECT_EQ(drained.submitted, engine.metrics.submitted);
  EXPECT_EQ(drained.accepted, engine.metrics.accepted);
  EXPECT_EQ(drained.rejected, engine.metrics.rejected);
  EXPECT_EQ(drained.accepted_volume, engine.metrics.accepted_volume);
  EXPECT_EQ(drained.rejected_volume, engine.metrics.rejected_volume);
  EXPECT_EQ(drained.makespan, engine.metrics.makespan);
  EXPECT_EQ(drained.clean, 1);

  // The metrics page after drain reports the same final counters.
  const std::string page = http_get_metrics("127.0.0.1", server.port());
  EXPECT_EQ(metric_value(page, "slacksched_accepted_total"),
            static_cast<double>(engine.metrics.accepted));
  EXPECT_EQ(metric_value(page, "slacksched_rejected_total"),
            static_cast<double>(engine.metrics.rejected));
  EXPECT_EQ(metric_value(page, "slacksched_submitted_total"),
            static_cast<double>(engine.metrics.submitted));
}

TEST(NetServer, BatchedSubmitMatchesSingleSubmits) {
  const Instance instance = test_instance(300, 7);
  ThresholdScheduler reference(0.1, 4);
  const RunResult engine = run_online(reference, instance, RunOptions{});

  AdmissionServerConfig config = loopback_config(instance.size());
  AdmissionServer server(config, [](int) {
    return std::make_unique<ThresholdScheduler>(0.1, 4);
  });
  AdmissionClient client("127.0.0.1", server.port());

  const std::uint64_t base = client.submit_batch(instance.jobs());
  std::map<std::uint64_t, DecisionReply> by_request;
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const DecisionReply reply = client.wait_reply();
    by_request[reply.request_id] = reply;
  }
  ASSERT_EQ(by_request.size(), instance.size());
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const DecisionRecord& expected = engine.decisions[i];
    ASSERT_TRUE(by_request.count(base + i));
    const DecisionReply& got = by_request[base + i];
    EXPECT_EQ(got.job_id, expected.job.id);
    EXPECT_EQ(got.outcome == Outcome::kAccepted, expected.decision.accepted);
  }
}

TEST(NetServer, InvalidJobInABatchIsRefusedAlone) {
  // A client can put any doubles on the wire. The one job without
  // processing time is answered REJECT invalid; the other seven are
  // decided, and the drained gateway is clean.
  AdmissionServer server(loopback_config(64), [](int) {
    return std::make_unique<ThresholdScheduler>(0.1, 4);
  });
  AdmissionClient client("127.0.0.1", server.port());
  std::vector<Job> jobs;
  for (JobId id = 0; id < 8; ++id) {
    Job job;
    job.id = id;
    job.proc = 1.0;
    job.deadline = 10.0;
    jobs.push_back(job);
  }
  jobs[5].proc = 0.0;
  const std::uint64_t base = client.submit_batch(jobs);
  const DrainedMsg drained = client.drain();
  EXPECT_EQ(drained.submitted, 7u);
  EXPECT_EQ(drained.clean, 1);

  std::map<std::uint64_t, DecisionReply> by_request;
  DecisionReply reply;
  while (client.try_reply(reply)) by_request[reply.request_id] = reply;
  ASSERT_EQ(by_request.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(by_request.count(base + i)) << "job " << i;
    const DecisionReply& got = by_request[base + i];
    EXPECT_EQ(got.job_id, jobs[i].id);
    if (i == 5) {
      EXPECT_EQ(got.outcome, Outcome::kRejectedInvalid);
    } else {
      EXPECT_TRUE(got.is_decision()) << "job " << i << ": "
                                     << to_string(got.outcome);
    }
  }
}

TEST(NetServer, BatchBeyondOneFramesCapIsAnsweredInFull) {
  // One frame of 40,000 jobs would carry a 1,280,012-byte payload, over
  // the 1 MiB cap, and the server would refuse it and close the connection
  // with no job answered. submit_batch splits at kMaxBatchJobs, so every
  // job is answered under its own request id.
  constexpr std::size_t kJobs = 40'000;
  static_assert(kJobs > kMaxBatchJobs);
  AdmissionServer server(loopback_config(kJobs), [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });
  AdmissionClient client("127.0.0.1", server.port());
  std::vector<Job> jobs(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs[i].id = static_cast<JobId>(i);
    jobs[i].proc = 1.0;
    jobs[i].deadline = 1e9;
  }
  const std::uint64_t base = client.submit_batch(jobs);
  const DrainedMsg drained = client.drain();
  EXPECT_EQ(drained.submitted, kJobs);
  EXPECT_EQ(drained.clean, 1);

  std::vector<bool> answered(kJobs, false);
  DecisionReply reply;
  while (client.try_reply(reply)) {
    ASSERT_GE(reply.request_id, base);
    const std::uint64_t i = reply.request_id - base;
    ASSERT_LT(i, kJobs);
    EXPECT_FALSE(answered[i]) << "job " << i << " answered twice";
    EXPECT_EQ(reply.job_id, jobs[i].id);
    EXPECT_TRUE(reply.is_decision()) << to_string(reply.outcome);
    answered[i] = true;
  }
  EXPECT_EQ(std::count(answered.begin(), answered.end(), true),
            static_cast<std::ptrdiff_t>(kJobs));
}

// ---------- no silent drops under backpressure ----------

TEST(NetServer, EverySubmitIsAnsweredUnderBackpressure) {
  // Tiny queue + slow-ish consumer: many submissions bounce with
  // kRejectedQueueFull. Contract: submitted == decisions + rejects.
  AdmissionServerConfig config = loopback_config(8);
  config.gateway.batch_size = 4;
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });

  constexpr int kClients = 4;
  constexpr int kJobsPerClient = 500;
  std::vector<std::size_t> decided(kClients, 0);
  std::vector<std::size_t> shed(kClients, 0);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      AdmissionClient client("127.0.0.1", server.port());
      for (int i = 0; i < kJobsPerClient; ++i) {
        const JobId id = c * kJobsPerClient + i;
        Job job;
        job.id = id;
        job.release = 0.0;
        job.proc = 1.0;
        job.deadline = 1e9;
        (void)client.submit(job);
        const DecisionReply reply = client.wait_reply();
        EXPECT_EQ(reply.job_id, id);
        if (reply.is_decision()) {
          ++decided[static_cast<std::size_t>(c)];
        } else {
          EXPECT_EQ(reply.outcome, Outcome::kRejectedQueueFull);
          ++shed[static_cast<std::size_t>(c)];
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::size_t total_decided = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(decided[static_cast<std::size_t>(c)] +
                  shed[static_cast<std::size_t>(c)],
              static_cast<std::size_t>(kJobsPerClient));
    total_decided += decided[static_cast<std::size_t>(c)];
  }
  const GatewayResult result = server.shutdown();
  EXPECT_EQ(result.merged.submitted, total_decided);
}

// ---------- drain semantics ----------

TEST(NetServer, SubmitAfterDrainIsRejectedClosed) {
  AdmissionServerConfig config = loopback_config(64);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });
  AdmissionClient client("127.0.0.1", server.port());

  Job job;
  job.id = 1;
  job.proc = 1.0;
  job.deadline = 100.0;
  const DecisionReply before = client.submit_wait(job);
  EXPECT_TRUE(before.is_decision());

  const DrainedMsg drained = client.drain();
  EXPECT_EQ(drained.submitted, 1u);
  EXPECT_TRUE(server.drained());

  job.id = 2;
  const DecisionReply after = client.submit_wait(job);
  EXPECT_EQ(after.outcome, Outcome::kRejectedClosed);

  // A second DRAIN answers again with the same cached counters.
  const DrainedMsg again = client.drain();
  EXPECT_EQ(again.submitted, drained.submitted);
  EXPECT_EQ(again.accepted, drained.accepted);
}

TEST(NetServer, PingPongEchoesToken) {
  AdmissionServerConfig config = loopback_config(16);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(1);
  });
  AdmissionClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.ping(0xdeadbeef), 0xdeadbeefu);
  // Pipelined submits in flight are buffered, not lost, across a ping.
  Job job;
  job.id = 10;
  job.proc = 1.0;
  job.deadline = 100.0;
  (void)client.submit(job);
  EXPECT_EQ(client.ping(7), 7u);
  DecisionReply reply;
  while (!client.try_reply(reply)) {
    reply = client.wait_reply();
    break;
  }
  EXPECT_EQ(reply.job_id, 10);
}

// ---------- config validation ----------

TEST(NetServer, RefusesToStartOnInvalidGatewayConfig) {
  AdmissionServerConfig config;
  config.gateway.shards = 0;
  config.gateway.enable_tracing = true;
  config.gateway.trace_capacity = 1000;  // not a power of two
  config.gateway.metrics_textfile = "/tmp/slacksched-net-test-metrics.prom";
  config.gateway.metrics_period = std::chrono::milliseconds{0};
  try {
    AdmissionServer server(config, [](int) {
      return std::make_unique<GreedyScheduler>(1);
    });
    FAIL() << "server started on an invalid config";
  } catch (const PreconditionError& e) {
    const std::string message = e.what();
    // Every problem is named in the single refusal message.
    EXPECT_NE(message.find("shards"), std::string::npos);
    EXPECT_NE(message.find("trace_capacity"), std::string::npos);
    EXPECT_NE(message.find("metrics_period"), std::string::npos);
  }
}

TEST(NetServer, GatewayConfigValidateListsEveryProblem) {
  GatewayConfig config;
  EXPECT_TRUE(config.validate().empty());  // defaults are deployable
  config.shards = 0;
  config.queue_capacity = 0;
  config.batch_size = 0;
  config.pop_timeout = std::chrono::milliseconds{0};
  EXPECT_GE(config.validate().size(), 4u);
}

// ---------- protocol violations over a real socket ----------

/// Raw loopback socket for sending hand-forged bytes.
class RawConn {
 public:
  explicit RawConn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    SLACKSCHED_EXPECTS(fd_ >= 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    SLACKSCHED_EXPECTS(
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) == 1);
    SLACKSCHED_EXPECTS(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                                 sizeof(addr)) == 0);
  }
  ~RawConn() { ::close(fd_); }

  /// Bounds every blocking read; a read that times out ends like EOF.
  void set_recv_timeout(std::chrono::milliseconds timeout) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
    tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
    (void)setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  void send_bytes(const void* data, std::size_t n) {
    ASSERT_EQ(::send(fd_, data, n, MSG_NOSIGNAL),
              static_cast<ssize_t>(n));
  }

  /// Reads until EOF and returns everything.
  std::string read_to_eof() {
    std::string out;
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) break;
      out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
  }

  /// Blocks until the next well-formed protocol frame arrives.
  Frame read_frame() {
    Frame frame;
    while (true) {
      const FrameDecoder::Status status = decoder_.next(frame);
      SLACKSCHED_EXPECTS(status != FrameDecoder::Status::kError);
      if (status == FrameDecoder::Status::kFrame) return frame;
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      SLACKSCHED_EXPECTS(n > 0);
      decoder_.feed(buf, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

TEST(NetServer, MalformedStreamGetsErrorFrameAndClose) {
  AdmissionServerConfig config = loopback_config(16);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(1);
  });
  RawConn raw(server.port());
  // A bad-version frame: framing is unrecoverable, so the server answers
  // with one ERROR frame and closes.
  std::vector<char> bytes;
  encode_ping(bytes, 1);
  bytes[0] = 9;  // wrong protocol version
  raw.send_bytes(bytes.data(), bytes.size());
  const std::string response = raw.read_to_eof();

  FrameDecoder decoder;
  decoder.feed(response.data(), response.size());
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_NE(parse_error_message(frame).find("version"), std::string::npos);

  // The server survives to serve well-formed clients.
  AdmissionClient client("127.0.0.1", server.port());
  EXPECT_EQ(client.ping(3), 3u);
}

TEST(NetServer, ClientOnlyFramesAreAProtocolError) {
  AdmissionServerConfig config = loopback_config(16);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(1);
  });
  RawConn raw(server.port());
  std::vector<char> bytes;
  encode_pong(bytes, 5);  // server-to-client frame sent at the server
  raw.send_bytes(bytes.data(), bytes.size());
  const std::string response = raw.read_to_eof();
  FrameDecoder decoder;
  decoder.feed(response.data(), response.size());
  Frame frame;
  ASSERT_EQ(decoder.next(frame), FrameDecoder::Status::kFrame);
  EXPECT_EQ(frame.type, FrameType::kError);
}

TEST(NetServer, HttpUnknownPathIs404) {
  AdmissionServerConfig config = loopback_config(16);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(1);
  });
  RawConn raw(server.port());
  const std::string request = "GET /nope HTTP/1.0\r\n\r\n";
  raw.send_bytes(request.data(), request.size());
  const std::string response = raw.read_to_eof();
  EXPECT_NE(response.find("404"), std::string::npos);
}

TEST(NetServer, HttpMetricsServesWhileTrafficFlows) {
  AdmissionServerConfig config = loopback_config(1024);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });
  AdmissionClient client("127.0.0.1", server.port());
  for (JobId id = 0; id < 100; ++id) {
    Job job;
    job.id = id;
    job.proc = 1.0;
    job.deadline = 1e9;
    (void)client.submit(job);
  }
  const std::string page = http_get_metrics("127.0.0.1", server.port());
  EXPECT_NE(page.find("# HELP slacksched_shards"), std::string::npos);
  EXPECT_NE(page.find("slacksched_outcomes_total"), std::string::npos);
  for (int i = 0; i < 100; ++i) (void)client.wait_reply();
}

// ---------- retry policy + retrying submitter ----------

TEST(NetClient, RetryPolicyNeverUndercutsTheServerHint) {
  // The schedule itself is the shared Backoff (test_supervisor); the policy
  // adds only the floor: a server hint larger than the local delay wins.
  RetryPolicy policy;
  for (int attempt = 1; attempt <= 12; ++attempt) {
    EXPECT_EQ(policy.delay(attempt, 0), policy.backoff.delay(attempt));
    EXPECT_GE(policy.delay(attempt, 200).count(), 200) << attempt;
  }
}

TEST(NetClient, RetryingSubmitterAnswersEveryJobUnderBackpressure) {
  // Same tiny-queue squeeze as EverySubmitIsAnsweredUnderBackpressure,
  // but the library's RetryingSubmitter resubmits the queue-full sheds:
  // the contract tightens to every job ending in a rendered decision.
  AdmissionServerConfig config = loopback_config(8);
  config.gateway.batch_size = 4;
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });

  AdmissionClient client("127.0.0.1", server.port());
  RetryPolicy policy;
  policy.max_attempts = 0;  // unlimited
  policy.backoff.initial = std::chrono::milliseconds(1);
  policy.backoff.max = std::chrono::milliseconds(4);
  RetryingSubmitter submitter(client, policy);

  constexpr std::size_t kJobs = 300;
  std::vector<Job> jobs(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) {
    jobs[i].id = static_cast<JobId>(i);
    jobs[i].release = 0.0;
    jobs[i].proc = 1.0;
    jobs[i].deadline = 1e9;
  }
  // Mix the two enqueue shapes: a pipelined batch frame + singles.
  submitter.enqueue_batch(std::span<const Job>(jobs.data(), kJobs / 2));
  for (std::size_t i = kJobs / 2; i < kJobs; ++i) {
    submitter.enqueue(jobs[i]);
  }

  std::size_t decided = 0;
  DecisionReply reply;
  while (submitter.pump(reply)) {
    EXPECT_TRUE(reply.is_decision())
        << "job " << reply.job_id << " ended as "
        << static_cast<int>(reply.outcome);
    ++decided;
  }
  EXPECT_EQ(decided, kJobs);
  EXPECT_EQ(submitter.in_flight(), 0u);
  const GatewayResult result = server.shutdown();
  EXPECT_EQ(result.merged.submitted, kJobs);
}

// ---------- idle-connection reaping ----------

TEST(NetServer, IdleConnectionsAreReapedActiveOnesSurvive) {
  AdmissionServerConfig config = loopback_config(64);
  config.idle_timeout = std::chrono::milliseconds(100);
  config.reap_interval = std::chrono::milliseconds(20);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });

  RawConn idle(server.port());  // connects, then never sends a byte
  AdmissionClient active("127.0.0.1", server.port());

  // Keep the active connection busy well past the idle deadline.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(400);
  std::uint64_t token = 1;
  while (std::chrono::steady_clock::now() < until) {
    EXPECT_EQ(active.ping(token), token);
    ++token;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // The reaper closed the idle peer: its read sees EOF without help.
  EXPECT_EQ(idle.read_to_eof(), "");
  EXPECT_GE(server.connections_reaped(), 1u);
  const std::string page = http_get_metrics("127.0.0.1", server.port());
  EXPECT_GE(metric_value(page, "slacksched_connections_reaped_total"), 1.0);

  // The active connection outlived every deadline.
  EXPECT_EQ(active.ping(token), token);
}

TEST(NetServer, ReapingDisabledKeepsIdleConnectionsOpen) {
  AdmissionServerConfig config = loopback_config(64);  // idle_timeout 0
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });
  RawConn idle(server.port());
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_EQ(server.connections_reaped(), 0u);
  // Still serviceable: a PING on the long-idle connection round-trips.
  AdmissionClient probe("127.0.0.1", server.port());
  EXPECT_EQ(probe.ping(7), 7u);
}

// ---------- owed DECISIONs outrank the idle reaper ----------

/// Delegates to an inner scheduler after a wall-clock stall, stretching
/// the submit->DECISION window far past any idle deadline.
class SlowScheduler final : public OnlineScheduler {
 public:
  SlowScheduler(std::unique_ptr<OnlineScheduler> inner,
                std::chrono::milliseconds stall)
      : inner_(std::move(inner)), stall_(stall) {}

  Decision on_arrival(const Job& job) override {
    std::this_thread::sleep_for(stall_);
    return inner_->on_arrival(job);
  }
  [[nodiscard]] int machines() const override { return inner_->machines(); }
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::string name() const override {
    return "slow(" + inner_->name() + ")";
  }

 private:
  std::unique_ptr<OnlineScheduler> inner_;
  std::chrono::milliseconds stall_;
};

TEST(NetServer, ReaperNeverDropsAnOwedDecision) {
  // The decision takes ~8 reap ticks to render while the connection's
  // wire stays silent. The pre-fix reaper closed it mid-wait and dropped
  // the owed DECISION; the owed-count exemption must keep it alive until
  // both replies land — every SUBMIT answered exactly once, every seed.
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    AdmissionServerConfig config = loopback_config(64);
    config.idle_timeout = std::chrono::milliseconds(30);
    config.reap_interval = std::chrono::milliseconds(10);
    AdmissionServer server(config, [](int) {
      return std::make_unique<SlowScheduler>(
          std::make_unique<GreedyScheduler>(2),
          std::chrono::milliseconds(80));
    });
    AdmissionClient client("127.0.0.1", server.port());
    RawConn idle(server.port());  // control: truly idle, still reapable

    std::vector<std::uint64_t> request_ids;
    for (int i = 0; i < 2; ++i) {
      Job job;
      job.id = static_cast<JobId>(2 * seed + static_cast<std::uint64_t>(i));
      job.proc = 1.0 + static_cast<double>(seed % 5);
      job.deadline = 1e9;
      request_ids.push_back(client.submit(job));
    }
    for (int i = 0; i < 2; ++i) {
      const DecisionReply reply = client.wait_reply();
      EXPECT_EQ(reply.request_id, request_ids[static_cast<std::size_t>(i)]);
      EXPECT_TRUE(reply.is_decision());
    }
    EXPECT_EQ(client.outstanding(), 0u);
    // The exemption is per-owed-connection, not a reaper kill switch: the
    // idle control connection was closed during the same window.
    EXPECT_EQ(idle.read_to_eof(), "");
    EXPECT_GE(server.connections_reaped(), 1u);
  }
}

// ---------- first-write classification ----------

TEST(NetServer, TrickledBinaryFirstByteReachesDecoder) {
  // One byte, then silence: the old sniffer buffered anything under 4
  // bytes without feeding the FrameDecoder, so a client that paused after
  // a short first write hung forever. The first byte of every protocol
  // frame (its version, kProtocolVersion) already rules out "GET ".
  AdmissionServerConfig config = loopback_config(16);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(1);
  });
  RawConn raw(server.port());
  std::vector<char> bytes;
  encode_ping(bytes, 0x2a);
  raw.send_bytes(bytes.data(), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (std::size_t i = 1; i < bytes.size(); ++i) {
    raw.send_bytes(bytes.data() + i, 1);  // keep trickling, byte at a time
  }
  const Frame frame = raw.read_frame();
  ASSERT_EQ(frame.type, FrameType::kPong);
  std::uint64_t token = 0;
  std::string error;
  ASSERT_TRUE(parse_token(frame, token, &error)) << error;
  EXPECT_EQ(token, 0x2au);
}

TEST(NetServer, HttpClassificationSurvivesSplitPrefixWrite) {
  // "G" alone is still a proper prefix of "GET ", so classification must
  // stay open until the request line resolves it.
  AdmissionServerConfig config = loopback_config(16);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(1);
  });
  RawConn raw(server.port());
  raw.send_bytes("G", 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const std::string rest = "ET /metrics HTTP/1.0\r\n\r\n";
  raw.send_bytes(rest.data(), rest.size());
  const std::string response = raw.read_to_eof();
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  EXPECT_NE(response.find("slacksched_submitted_total"), std::string::npos);
}

// ---------- accept failure handling ----------

std::size_t count_open_fds() {
  DIR* dir = ::opendir("/proc/self/fd");
  SLACKSCHED_EXPECTS(dir != nullptr);
  std::size_t n = 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n - 3;  // ".", "..", and the directory's own fd
}

TEST(NetServer, FdExhaustionBacksOffCountsAndRecovers) {
  AdmissionServerConfig config = loopback_config(16);
  config.accept_backoff = std::chrono::milliseconds(50);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(1);
  });

  // The client socket exists before the clamp; its connect() completes in
  // the kernel regardless. Only the server-side accept4 needs a new fd.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  timeval rcv_timeout{5, 0};  // a broken rearm must fail, not hang
  (void)setsockopt(probe, SOL_SOCKET, SO_RCVTIMEO, &rcv_timeout,
                   sizeof(rcv_timeout));

  rlimit original{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &original), 0);
  rlimit clamped = original;
  clamped.rlim_cur = count_open_fds();  // zero headroom: next fd fails
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &clamped), 0);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);

  // accept4 hits EMFILE: the error is counted and the listener disarmed
  // (no hot spin — pre-fix this silently burned a core).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.accept_errors() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server.accept_errors(), 1u);

  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &original), 0);

  // The connection stayed in the backlog; after accept_backoff the
  // listener rearms and adopts it — the same socket now round-trips.
  std::vector<char> ping;
  encode_ping(ping, 17);
  ASSERT_EQ(::send(probe, ping.data(), ping.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(ping.size()));
  FrameDecoder decoder;
  Frame frame;
  char buf[4096];
  while (decoder.next(frame) != FrameDecoder::Status::kFrame) {
    const ssize_t n = ::recv(probe, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "no PONG after listener rearm";
    decoder.feed(buf, static_cast<std::size_t>(n));
  }
  EXPECT_EQ(frame.type, FrameType::kPong);
  ::close(probe);

  const std::string page = http_get_metrics("127.0.0.1", server.port());
  EXPECT_GE(metric_value(page, "slacksched_accept_errors_total"), 1.0);
}

// ---------- multi-loop front end ----------

TEST(NetServer, MultiLoopDecisionStreamEqualsRunOnline) {
  // One client lands on one loop; with a single shard behind the gateway
  // the ordered bit-identical pin must hold regardless of loop count.
  const Instance instance = test_instance(300, 4242);
  ThresholdScheduler reference(0.1, 4);
  const RunResult engine = run_online(reference, instance, RunOptions{});

  AdmissionServerConfig config = loopback_config(instance.size());
  config.loops = 2;
  AdmissionServer server(config, [](int) {
    return std::make_unique<ThresholdScheduler>(0.1, 4);
  });
  EXPECT_EQ(server.loops(), 2);
  AdmissionClient client("127.0.0.1", server.port());

  std::vector<std::uint64_t> request_ids;
  for (const Job& job : instance.jobs()) {
    request_ids.push_back(client.submit(job));
  }
  ASSERT_EQ(engine.decisions.size(), instance.size());
  for (std::size_t i = 0; i < instance.size(); ++i) {
    const DecisionRecord& expected = engine.decisions[i];
    const DecisionReply got = client.wait_reply();
    EXPECT_EQ(got.request_id, request_ids[i]);
    EXPECT_EQ(got.job_id, expected.job.id);
    ASSERT_TRUE(got.is_decision());
    EXPECT_EQ(got.outcome == Outcome::kAccepted, expected.decision.accepted);
    if (expected.decision.accepted) {
      EXPECT_EQ(got.machine, expected.decision.machine);
      EXPECT_EQ(got.start, expected.decision.start);  // bit-exact doubles
    }
  }
  const DrainedMsg drained = client.drain();
  EXPECT_EQ(drained.submitted, engine.metrics.submitted);
  EXPECT_EQ(drained.accepted, engine.metrics.accepted);
  EXPECT_EQ(drained.makespan, engine.metrics.makespan);
}

TEST(NetServer, MultiLoopAnswersEverySubmit) {
  AdmissionServerConfig config = loopback_config(8);
  config.gateway.batch_size = 4;
  config.loops = 4;
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });

  constexpr int kClients = 8;
  constexpr int kJobsPerClient = 200;
  std::vector<std::size_t> answered(kClients, 0);
  std::vector<std::size_t> decided(kClients, 0);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      AdmissionClient client("127.0.0.1", server.port());
      for (int i = 0; i < kJobsPerClient; ++i) {
        const JobId id = c * kJobsPerClient + i;
        Job job;
        job.id = id;
        job.proc = 1.0;
        job.deadline = 1e9;
        (void)client.submit(job);
        const DecisionReply reply = client.wait_reply();
        EXPECT_EQ(reply.job_id, id);
        ++answered[static_cast<std::size_t>(c)];
        if (reply.is_decision()) ++decided[static_cast<std::size_t>(c)];
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::size_t total_decided = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(answered[static_cast<std::size_t>(c)],
              static_cast<std::size_t>(kJobsPerClient));
    total_decided += decided[static_cast<std::size_t>(c)];
  }
  const GatewayResult result = server.shutdown();
  EXPECT_EQ(result.merged.submitted, total_decided);
}

TEST(NetServer, DrainPropagatesAcrossLoops) {
  // The kernel spreads connections over the loops' SO_REUSEPORT listeners
  // by hash, so 16 connections cover all 3 loops with overwhelming odds.
  // A DRAIN on one connection must close the gateway for every one.
  AdmissionServerConfig config = loopback_config(64);
  config.loops = 3;
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });

  std::vector<std::unique_ptr<AdmissionClient>> clients;
  for (int i = 0; i < 16; ++i) {
    clients.push_back(
        std::make_unique<AdmissionClient>("127.0.0.1", server.port()));
  }
  Job job;
  job.id = 1;
  job.proc = 1.0;
  job.deadline = 100.0;
  EXPECT_TRUE(clients[0]->submit_wait(job).is_decision());

  const DrainedMsg drained = clients[1]->drain();
  EXPECT_EQ(drained.submitted, 1u);
  EXPECT_TRUE(server.drained());

  for (std::size_t i = 0; i < clients.size(); ++i) {
    job.id = static_cast<JobId>(100 + i);
    EXPECT_EQ(clients[i]->submit_wait(job).outcome, Outcome::kRejectedClosed)
        << "connection " << i;
    EXPECT_EQ(clients[i]->ping(i), i) << "connection " << i;
  }
}

// ---------- reply routing: one answer per submission, to its submitter ----------

/// One of two jobs with equal ids: the twin bound for the accepting shard
/// 0, or the longer one bound for the rejecting shard 1.
Job twin_job(JobId id, bool to_shard_0) {
  Job job;
  job.id = id;
  job.release = 0.0;
  job.proc = to_shard_0 ? 1.0 : 5.0;
  job.deadline = to_shard_0 ? 100.0 : 5.0;
  return job;
}

/// Rejects every job: shard 1 of the twin test, where only the twins
/// that must be rejected land.
class RejectingScheduler final : public OnlineScheduler {
 public:
  Decision on_arrival(const Job& /*job*/) override {
    return Decision::reject();
  }
  [[nodiscard]] int machines() const override { return 2; }
  void reset() override {}
  [[nodiscard]] std::string name() const override { return "rejecting"; }
};

TEST(NetServer, DuplicateJobIdsAreAnsweredPerSubmission) {
  // Round robin over two shards sends equal ids to different shards, and
  // shard 0 decides slowly, so the later submission of an id is decided
  // first. Each answer must still reach the submission that carried the
  // job: the twin on shard 0 accepted, the one on shard 1 rejected, each
  // under its own request id — across two connections and inside one
  // batch.
  AdmissionServerConfig config = loopback_config(64);
  config.gateway.shards = 2;
  AdmissionServer server(
      config, [](int shard) -> std::unique_ptr<OnlineScheduler> {
        if (shard != 0) return std::make_unique<RejectingScheduler>();
        return std::make_unique<SlowScheduler>(
            std::make_unique<GreedyScheduler>(2),
            std::chrono::milliseconds(50));
      });
  AdmissionClient a("127.0.0.1", server.port());
  AdmissionClient b("127.0.0.1", server.port());

  const std::uint64_t ra = a.submit(twin_job(7, true));  // shard 0 (slow)
  ASSERT_EQ(a.ping(1), 1u);  // a's SUBMIT reached the gateway first
  const std::uint64_t rb = b.submit(twin_job(7, false));  // shard 1
  const DecisionReply got_b = b.wait_reply();
  EXPECT_EQ(got_b.request_id, rb);
  EXPECT_EQ(got_b.job_id, 7);
  EXPECT_EQ(got_b.outcome, Outcome::kRejected);
  const DecisionReply got_a = a.wait_reply();
  EXPECT_EQ(got_a.request_id, ra);
  EXPECT_EQ(got_a.job_id, 7);
  EXPECT_EQ(got_a.outcome, Outcome::kAccepted);

  // One SUBMIT_BATCH with a duplicate id: jobs 2 and 3 of the round robin.
  const std::vector<Job> twins = {twin_job(9, true), twin_job(9, false)};
  const std::uint64_t base = a.submit_batch(twins);
  std::map<std::uint64_t, DecisionReply> by_request;
  for (int i = 0; i < 2; ++i) {
    const DecisionReply reply = a.wait_reply();
    EXPECT_TRUE(by_request.emplace(reply.request_id, reply).second)
        << "request " << reply.request_id << " answered twice";
  }
  ASSERT_EQ(by_request.size(), 2u);
  ASSERT_TRUE(by_request.count(base) && by_request.count(base + 1));
  EXPECT_EQ(by_request[base].outcome, Outcome::kAccepted);
  EXPECT_EQ(by_request[base + 1].outcome, Outcome::kRejected);
  EXPECT_EQ(a.outstanding(), 0u);
  EXPECT_EQ(b.outstanding(), 0u);
}

TEST(NetServer, ShedBatchReclaimsTicketsSoTheReaperCanClose) {
  // A SUBMIT_BATCH far larger than the queue: the ring takes what fits and
  // the rest is shed queue-full at once. Those tickets go back with their
  // REJECTs; a leaked one would leave the connection owed forever, and
  // the idle reaper would never close it.
  AdmissionServerConfig config = loopback_config(8);
  config.idle_timeout = std::chrono::milliseconds(50);
  config.reap_interval = std::chrono::milliseconds(10);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });
  RawConn raw(server.port());
  raw.set_recv_timeout(std::chrono::seconds(5));

  constexpr std::uint64_t kBase = 1000;
  std::vector<Job> jobs(64);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<JobId>(i);
    jobs[i].proc = 1.0;
    jobs[i].deadline = 1e9;
  }
  std::vector<char> bytes;
  encode_submit_batch(bytes, kBase, jobs);
  raw.send_bytes(bytes.data(), bytes.size());

  std::map<std::uint64_t, JobId> answered;
  std::size_t decided = 0;
  std::size_t shed = 0;
  std::string error;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Frame frame = raw.read_frame();
    std::uint64_t request_id = 0;
    JobId job_id = -1;
    if (frame.type == FrameType::kDecision) {
      DecisionMsg msg;
      ASSERT_TRUE(parse_decision(frame, msg, &error)) << error;
      request_id = msg.request_id;
      job_id = msg.job_id;
      ++decided;
    } else {
      ASSERT_EQ(frame.type, FrameType::kReject);
      RejectMsg msg;
      ASSERT_TRUE(parse_reject(frame, msg, &error)) << error;
      EXPECT_EQ(msg.outcome, Outcome::kRejectedQueueFull);
      request_id = msg.request_id;
      job_id = msg.job_id;
      ++shed;
    }
    EXPECT_EQ(job_id, static_cast<JobId>(request_id - kBase));
    EXPECT_TRUE(answered.emplace(request_id, job_id).second);
  }
  EXPECT_EQ(answered.size(), jobs.size());
  EXPECT_GT(decided, 0u);
  EXPECT_GT(shed, 0u);

  // Nothing is owed any more: the reaper closes the silent connection.
  EXPECT_EQ(raw.read_to_eof(), "");
  EXPECT_EQ(server.connections_reaped(), 1u);
}

/// Accepts job kPoisonId at a start before its release: an illegal
/// commitment, so a halt-on-violation shard stops deciding from there on.
class PoisonScheduler final : public OnlineScheduler {
 public:
  static constexpr JobId kPoisonId = 50;

  Decision on_arrival(const Job& job) override {
    if (job.id == kPoisonId) return Decision::accept(0, job.release - 1.0);
    return inner_.on_arrival(job);
  }
  [[nodiscard]] int machines() const override { return inner_.machines(); }
  void reset() override { inner_.reset(); }
  [[nodiscard]] std::string name() const override { return "poison"; }

 private:
  GreedyScheduler inner_{2};
};

TEST(NetServer, LeftoversRejectedAtDrainCarryTheirJobIds) {
  AdmissionServerConfig config = loopback_config(64);
  AdmissionServer server(config, [](int) {
    return std::make_unique<PoisonScheduler>();
  });
  AdmissionClient client("127.0.0.1", server.port());

  Job job;
  job.proc = 1.0;
  job.deadline = 100.0;
  job.id = 1;
  EXPECT_TRUE(client.submit_wait(job).is_decision());
  // The poison job and everything behind it are enqueued but never
  // decided: the shard halts on the illegal commitment.
  std::map<std::uint64_t, JobId> leftovers;
  for (JobId id = PoisonScheduler::kPoisonId;
       id < PoisonScheduler::kPoisonId + 5; ++id) {
    job.id = id;
    leftovers[client.submit(job)] = id;
  }
  const DrainedMsg drained = client.drain();
  EXPECT_EQ(drained.clean, 0);

  std::size_t answered = 0;
  DecisionReply reply;
  while (client.try_reply(reply)) {
    ASSERT_TRUE(leftovers.count(reply.request_id))
        << "unexpected request " << reply.request_id;
    EXPECT_EQ(reply.job_id, leftovers[reply.request_id]);
    EXPECT_EQ(reply.outcome, Outcome::kRejectedClosed);
    ++answered;
  }
  EXPECT_EQ(answered, leftovers.size());
}

// ---------- many frames in one write: one gateway hand-off per read ----------

/// A frame-level answer: which request it answers, for which job, how.
struct WireAnswer {
  FrameType type = FrameType::kDecision;
  std::uint64_t request_id = 0;
  JobId job_id = 0;
  Outcome outcome = Outcome::kRejected;
  DecisionMsg decision;
};

WireAnswer read_answer(RawConn& raw) {
  const Frame frame = raw.read_frame();
  WireAnswer answer;
  answer.type = frame.type;
  std::string error;
  if (frame.type == FrameType::kDecision) {
    EXPECT_TRUE(parse_decision(frame, answer.decision, &error)) << error;
    answer.request_id = answer.decision.request_id;
    answer.job_id = answer.decision.job_id;
    answer.outcome = answer.decision.outcome;
  } else {
    EXPECT_EQ(frame.type, FrameType::kReject);
    RejectMsg msg;
    EXPECT_TRUE(parse_reject(frame, msg, &error)) << error;
    answer.request_id = msg.request_id;
    answer.job_id = msg.job_id;
    answer.outcome = msg.outcome;
  }
  return answer;
}

Job plain_job(JobId id) {
  Job job;
  job.id = id;
  job.proc = 1.0;
  job.deadline = 1e9;
  return job;
}

TEST(NetServer, CoalescedSubmitsAreShedUnderTheirOwnRequestIds) {
  // 64 lone SUBMITs in one write reach the gateway as one batch; a ring of
  // 8 takes what fits and sheds the rest at once. Every answer, REJECT
  // included, must carry its own frame's request id: the ids here are a
  // shuffle, so "first id + i" answers the wrong requests.
  AdmissionServerConfig config = loopback_config(8);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });
  RawConn raw(server.port());
  raw.set_recv_timeout(std::chrono::seconds(5));

  constexpr std::size_t kJobs = 64;
  std::vector<std::uint64_t> ids(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) ids[i] = 1000 + i;
  std::shuffle(ids.begin(), ids.end(), std::mt19937_64(26));
  std::map<std::uint64_t, JobId> job_of;
  std::vector<char> bytes;
  for (std::size_t i = 0; i < kJobs; ++i) {
    SubmitMsg msg;
    msg.request_id = ids[i];
    msg.job = plain_job(static_cast<JobId>(7 * i + 3));
    job_of[ids[i]] = msg.job.id;
    encode_submit(bytes, msg);
  }
  raw.send_bytes(bytes.data(), bytes.size());

  std::map<std::uint64_t, std::size_t> answers;
  std::size_t shed = 0;
  for (std::size_t i = 0; i < kJobs; ++i) {
    const WireAnswer answer = read_answer(raw);
    ASSERT_TRUE(job_of.count(answer.request_id))
        << "unknown request " << answer.request_id;
    EXPECT_EQ(answer.job_id, job_of[answer.request_id]);
    ++answers[answer.request_id];
    if (answer.type == FrameType::kReject) {
      EXPECT_EQ(answer.outcome, Outcome::kRejectedQueueFull);
      ++shed;
    }
  }
  EXPECT_EQ(answers.size(), kJobs);
  for (const auto& [request_id, count] : answers) {
    EXPECT_EQ(count, 1u) << "request " << request_id;
  }
  EXPECT_GT(shed, 0u);
}

TEST(NetServer, OneWriteOfMixedFramesKeepsFrameOrder) {
  // SUBMIT x k, SUBMIT_BATCH, PING, SUBMIT x k, DRAIN in one write: the
  // PING and the DRAIN must each see every job before them submitted.
  AdmissionServerConfig config = loopback_config(256);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });
  RawConn raw(server.port());
  raw.set_recv_timeout(std::chrono::seconds(5));

  constexpr std::size_t kLone = 5;
  constexpr std::size_t kBatch = 9;
  constexpr std::uint64_t kToken = 0x5eed;
  std::vector<char> bytes;
  std::uint64_t next_id = 1;
  JobId next_job = 0;
  const auto lone_submits = [&] {
    for (std::size_t i = 0; i < kLone; ++i) {
      SubmitMsg msg;
      msg.request_id = next_id++;
      msg.job = plain_job(next_job++);
      encode_submit(bytes, msg);
    }
  };
  lone_submits();
  std::vector<Job> batch;
  for (std::size_t i = 0; i < kBatch; ++i) {
    batch.push_back(plain_job(next_job++));
  }
  encode_submit_batch(bytes, next_id, batch);
  next_id += kBatch;
  encode_ping(bytes, kToken);
  lone_submits();
  encode_drain(bytes);
  raw.send_bytes(bytes.data(), bytes.size());

  constexpr std::size_t kTotal = kLone + kBatch + kLone;
  std::map<std::uint64_t, JobId> answered;
  bool ponged = false;
  std::string error;
  while (true) {
    const Frame frame = raw.read_frame();
    if (frame.type == FrameType::kDrained) {
      DrainedMsg drained;
      ASSERT_TRUE(parse_drained(frame, drained, &error)) << error;
      EXPECT_EQ(drained.submitted, kTotal);
      EXPECT_EQ(drained.accepted + drained.rejected, kTotal);
      EXPECT_EQ(drained.clean, 1);
      break;
    }
    if (frame.type == FrameType::kPong) {
      std::uint64_t token = 0;
      ASSERT_TRUE(parse_token(frame, token, &error)) << error;
      EXPECT_EQ(token, kToken);
      EXPECT_FALSE(ponged);
      ponged = true;
      continue;
    }
    ASSERT_EQ(frame.type, FrameType::kDecision);
    DecisionMsg msg;
    ASSERT_TRUE(parse_decision(frame, msg, &error)) << error;
    // Request ids 1.. were issued to jobs 0.. in order.
    EXPECT_EQ(msg.job_id, static_cast<JobId>(msg.request_id - 1));
    EXPECT_TRUE(answered.emplace(msg.request_id, msg.job_id).second);
  }
  EXPECT_TRUE(ponged);
  // Every DECISION is resolved before the DRAINED frame leaves.
  EXPECT_EQ(answered.size(), kTotal);
}

TEST(NetServer, MalformedFrameKeepsTheSubmitsBeforeIt) {
  // Valid SUBMITs, then a SUBMIT whose payload is one byte short, in one
  // write: the protocol error closes the connection, but the jobs that
  // came before it were received whole and still reach the gateway.
  AdmissionServerConfig config = loopback_config(64);
  AdmissionServer server(config, [](int) {
    return std::make_unique<GreedyScheduler>(2);
  });
  RawConn raw(server.port());
  raw.set_recv_timeout(std::chrono::seconds(5));

  constexpr std::size_t kValid = 6;
  std::vector<char> bytes;
  for (std::size_t i = 0; i < kValid; ++i) {
    SubmitMsg msg;
    msg.request_id = 50 + i;
    msg.job = plain_job(static_cast<JobId>(i));
    encode_submit(bytes, msg);
  }
  // Well framed, but 39 payload bytes where a SUBMIT needs 40.
  const std::size_t start = wire::begin_frame(bytes);
  bytes.resize(bytes.size() + 39);
  wire::end_frame(bytes, start, kAdmissionFrames, FrameType::kSubmit);
  raw.send_bytes(bytes.data(), bytes.size());

  const std::string response = raw.read_to_eof();
  FrameDecoder decoder;
  decoder.feed(response.data(), response.size());
  Frame frame;
  bool saw_error = false;
  while (decoder.next(frame) == FrameDecoder::Status::kFrame) {
    saw_error = saw_error || frame.type == FrameType::kError;
  }
  EXPECT_TRUE(saw_error);
  const GatewayResult result = server.shutdown();
  EXPECT_EQ(result.merged.submitted, kValid);
}

TEST(NetServer, ChunkedByteStreamDecidesLikeRunOnline) {
  // One byte stream of mixed SUBMIT and SUBMIT_BATCH frames, written cut
  // at several chunk sizes: however the reads split it, the decisions
  // arrive in submission order and equal the in-process engine's, bit
  // for bit.
  const Instance instance = test_instance(300, 2611);
  ThresholdScheduler reference(0.1, 4);
  const RunResult engine = run_online(reference, instance, RunOptions{});
  ASSERT_EQ(engine.decisions.size(), instance.size());

  std::vector<char> stream;
  std::vector<std::uint64_t> request_ids;
  const std::span<const Job> jobs = instance.jobs();
  std::size_t next = 0;
  std::uint64_t next_id = 77;
  for (std::size_t frame = 0; next < jobs.size(); ++frame) {
    // Alternate runs of lone SUBMITs with batches of 1..13 jobs.
    const std::size_t run =
        std::min<std::size_t>(jobs.size() - next, 1 + (frame * 5) % 13);
    if (frame % 2 == 0) {
      for (std::size_t i = 0; i < run; ++i) {
        SubmitMsg msg;
        msg.request_id = next_id;
        next_id += 3;  // lone ids need not be contiguous
        msg.job = jobs[next++];
        request_ids.push_back(msg.request_id);
        encode_submit(stream, msg);
      }
    } else {
      encode_submit_batch(stream, next_id, jobs.subspan(next, run));
      for (std::size_t i = 0; i < run; ++i) request_ids.push_back(next_id + i);
      next_id += run;
      next += run;
    }
  }

  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{41}, std::size_t{4096},
        stream.size()}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    AdmissionServerConfig config = loopback_config(instance.size());
    AdmissionServer server(config, [](int) {
      return std::make_unique<ThresholdScheduler>(0.1, 4);
    });
    RawConn raw(server.port());
    raw.set_recv_timeout(std::chrono::seconds(10));
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      raw.send_bytes(stream.data() + at,
                     std::min(chunk, stream.size() - at));
    }
    for (std::size_t i = 0; i < instance.size(); ++i) {
      const WireAnswer got = read_answer(raw);
      const DecisionRecord& expected = engine.decisions[i];
      ASSERT_EQ(got.type, FrameType::kDecision) << "at " << i;
      EXPECT_EQ(got.request_id, request_ids[i]) << "reply order broke at " << i;
      EXPECT_EQ(got.job_id, expected.job.id);
      EXPECT_EQ(got.outcome == Outcome::kAccepted,
                expected.decision.accepted);
      if (expected.decision.accepted) {
        EXPECT_EQ(got.decision.machine, expected.decision.machine);
        EXPECT_EQ(got.decision.start, expected.decision.start);
      }
    }
    std::vector<char> drain;
    encode_drain(drain);
    raw.send_bytes(drain.data(), drain.size());
    const Frame frame = raw.read_frame();
    ASSERT_EQ(frame.type, FrameType::kDrained);
    DrainedMsg drained;
    std::string error;
    ASSERT_TRUE(parse_drained(frame, drained, &error)) << error;
    EXPECT_EQ(drained.submitted, engine.metrics.submitted);
    EXPECT_EQ(drained.accepted, engine.metrics.accepted);
    EXPECT_EQ(drained.accepted_volume, engine.metrics.accepted_volume);
    EXPECT_EQ(drained.makespan, engine.metrics.makespan);
  }
}

}  // namespace
}  // namespace slacksched::net
