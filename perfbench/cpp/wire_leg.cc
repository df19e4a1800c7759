#include "wire_leg.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>

#include "common/rng.h"
#include "server/server.h"

namespace perfbench {

namespace {

enum class Status : uint8_t { kPending, kAnswer, kRetry, kError, kTimeout };

/// One request's life on the wire.
struct WireRecord {
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t recv_ns = 0;
  Status status = Status::kPending;
  server::QueryAnswer answer;
};

/// One client session, driven non-blocking by the generator.
struct Session {
  int fd = -1;
  std::vector<uint8_t> out;
  size_t out_done = 0;
  server::FrameAssembler in;
  bool broken = false;
};

bool WriteAll(int fd, const std::vector<uint8_t>& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + done, bytes.size() - done);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

/// Connects and negotiates protocol v2 (blocking), then switches the
/// socket to non-blocking mode.
bool OpenSession(uint16_t port, Session* s, std::string* error) {
  s->fd = socket(AF_INET, SOCK_STREAM, 0);
  if (s->fd < 0) {
    *error = "socket() failed";
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(s->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "connect() failed";
    return false;
  }
  const int one = 1;
  setsockopt(s->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::vector<uint8_t> hello;
  server::AppendFrame(server::FrameType::kHello,
                      server::EncodeHello(server::HelloRequest{}), &hello);
  if (!WriteAll(s->fd, hello)) {
    *error = "HELLO write failed";
    return false;
  }
  server::Frame frame;
  for (;;) {
    const server::FrameAssembler::Result r = s->in.Next(&frame);
    if (r == server::FrameAssembler::Result::kFrame) break;
    if (r == server::FrameAssembler::Result::kError) {
      *error = "bad HELLO_ACK framing";
      return false;
    }
    uint8_t buffer[4096];
    const ssize_t n = read(s->fd, buffer, sizeof(buffer));
    if (n <= 0) {
      *error = "HELLO_ACK read failed";
      return false;
    }
    s->in.Feed(buffer, static_cast<size_t>(n));
  }
  server::HelloAck ack;
  if (frame.type != server::FrameType::kHelloAck ||
      !server::DecodeHelloAck(frame.payload, &ack)) {
    *error = "HELLO rejected";
    return false;
  }
  fcntl(s->fd, F_SETFL, fcntl(s->fd, F_GETFL) | O_NONBLOCK);
  return true;
}

void CloseSession(Session* s) {
  if (s->fd < 0) return;
  std::vector<uint8_t> bye;
  server::AppendFrame(server::FrameType::kBye, {}, &bye);
  fcntl(s->fd, F_SETFL, fcntl(s->fd, F_GETFL) & ~O_NONBLOCK);
  WriteAll(s->fd, bye);
  close(s->fd);
  s->fd = -1;
}

/// Writes as much pending output as the socket takes.
void Flush(Session* s) {
  while (s->out_done < s->out.size()) {
    const ssize_t n = write(s->fd, s->out.data() + s->out_done,
                            s->out.size() - s->out_done);
    if (n > 0) {
      s->out_done += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    s->broken = true;
    return;
  }
  s->out.clear();
  s->out_done = 0;
}

server::QueryCall ToCall(const core::QueryRequest& r, uint64_t id) {
  server::QueryCall call;
  call.request_id = id;
  call.kind = r.kind;
  call.position = r.position;
  call.k = r.k;
  call.window = r.window;
  call.slot = r.slot;
  return call;
}

/// The request a server worker executes for `call` (same k clamp).
core::QueryRequest FromCall(const server::QueryCall& call,
                            const core::ShardedQueryEngine& engine) {
  core::QueryRequest r;
  r.kind = call.kind;
  r.position = call.position;
  r.k = static_cast<int>(std::min<uint64_t>(
      static_cast<uint64_t>(std::max(call.k, 0)), engine.total_pois()));
  r.window = call.window;
  r.slot = call.slot;
  return r;
}

uint64_t AnswerDigest(const server::QueryAnswer& a) {
  Digest d;
  if (a.kind == core::QueryKind::kKnn) {
    for (size_t i = 0; i < a.neighbor_ids.size(); ++i) {
      d.Add(static_cast<uint64_t>(a.neighbor_ids[i]));
      d.Add(std::bit_cast<uint64_t>(a.neighbor_distances[i]));
    }
    d.Add(a.neighbor_ids.size());
  } else {
    for (const int64_t id : a.poi_ids) d.Add(static_cast<uint64_t>(id));
    d.Add(a.poi_ids.size());
  }
  return d.value();
}

bool SameAnswer(const server::QueryAnswer& a, const server::QueryAnswer& b) {
  if (a.neighbor_distances.size() != b.neighbor_distances.size()) return false;
  for (size_t i = 0; i < a.neighbor_distances.size(); ++i) {
    if (std::bit_cast<uint64_t>(a.neighbor_distances[i]) !=
        std::bit_cast<uint64_t>(b.neighbor_distances[i])) {
      return false;
    }
  }
  return a.request_id == b.request_id && a.kind == b.kind &&
         a.epoch == b.epoch && a.neighbor_ids == b.neighbor_ids &&
         a.poi_ids == b.poi_ids && a.access_latency == b.access_latency &&
         a.tuning_time == b.tuning_time && a.buckets_read == b.buckets_read;
}

/// The single-threaded open-loop generator over `sessions`.
class Generator {
 public:
  Generator(std::vector<Session>* sessions, std::vector<WireRecord>* records,
            const std::vector<core::QueryRequest>& requests)
      : sessions_(*sessions), records_(*records), requests_(requests) {}

  /// Sends requests [begin, end) at Poisson arrivals of `rate` per second
  /// and receives until each is answered, shed, or timed out. False when a
  /// session broke.
  bool Run(size_t begin, size_t end, double rate, uint64_t seed,
           SpanBuffer* spans) {
    lbsq::Rng gaps(seed);
    int64_t due = NowNs() + 2'000'000;
    for (size_t i = begin; i < end; ++i) {
      due += static_cast<int64_t>(gaps.Exponential(rate) * 1e9);
      records_[i].due_ns = due;
    }
    const int64_t deadline = due + 1'000'000'000;  // 1 s grace
    size_t next = begin;
    size_t outstanding = 0;
    bool broken = false;
    std::vector<pollfd> fds(sessions_.size());
    while ((next < end || outstanding > 0) && !broken) {
      int64_t now = NowNs();
      while (next < end && records_[next].due_ns <= now) {
        Send(next, &sessions_[next % sessions_.size()], spans);
        ++next;
        ++outstanding;
        now = NowNs();
      }
      if (now > deadline) break;
      const int64_t wait_ns =
          next < end ? records_[next].due_ns - now : deadline - now;
      for (size_t c = 0; c < sessions_.size(); ++c) {
        fds[c].fd = sessions_[c].fd;
        fds[c].events = static_cast<short>(
            POLLIN | (sessions_[c].out.empty() ? 0 : POLLOUT));
        fds[c].revents = 0;
      }
      const timespec timeout{wait_ns / 1'000'000'000,
                             std::max<int64_t>(wait_ns, 0) % 1'000'000'000};
      if (ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
      for (size_t c = 0; c < sessions_.size(); ++c) {
        if ((fds[c].revents & POLLOUT) != 0) Flush(&sessions_[c]);
        if ((fds[c].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
          outstanding -= Receive(&sessions_[c], begin, end, spans);
        }
      }
      broken = std::any_of(sessions_.begin(), sessions_.end(),
                           [](const Session& s) { return s.broken; });
    }
    for (size_t i = begin; i < end; ++i) {
      if (records_[i].status == Status::kPending) {
        records_[i].status = Status::kTimeout;
      }
    }
    return !broken;
  }

 private:
  /// Encodes request `i` onto session `s` and writes what the socket takes.
  void Send(size_t i, Session* s, SpanBuffer* spans) {
    const int64_t encode_start = NowNs();
    server::AppendFrame(server::FrameType::kQuery,
                        server::EncodeQueryCall(ToCall(requests_[i], i)),
                        &s->out);
    const int64_t encode_end = NowNs();
    Flush(s);
    records_[i].sent_ns = NowNs();
    if (spans != nullptr) {
      spans->Record("protocol.encode", static_cast<int64_t>(i), -1,
                    encode_start, encode_end);
    }
  }

  /// Reads what arrived and settles the records it answers; returns how
  /// many requests of this phase it settled.
  size_t Receive(Session* s, size_t begin, size_t end, SpanBuffer* spans) {
    uint8_t buffer[65536];
    for (;;) {
      const ssize_t n = read(s->fd, buffer, sizeof(buffer));
      if (n > 0) {
        s->in.Feed(buffer, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < sizeof(buffer)) break;
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      s->broken = true;
      break;
    }
    const int64_t arrived = NowNs();
    size_t settled = 0;
    server::Frame frame;
    for (;;) {
      const server::FrameAssembler::Result r = s->in.Next(&frame);
      if (r == server::FrameAssembler::Result::kNeedMore) break;
      if (r == server::FrameAssembler::Result::kError) {
        s->broken = true;
        break;
      }
      const int64_t decode_start = NowNs();
      uint64_t id = 0;
      Status status = Status::kError;
      server::QueryAnswer answer;
      if (frame.type == server::FrameType::kAnswer &&
          server::DecodeQueryAnswer(frame.payload, &answer)) {
        id = answer.request_id;
        status = Status::kAnswer;
      } else if (server::RetryAfter retry;
                 frame.type == server::FrameType::kRetryAfter &&
                 server::DecodeRetryAfter(frame.payload, &retry)) {
        id = retry.request_id;
        status = Status::kRetry;
      } else {
        s->broken = true;
        break;
      }
      if (spans != nullptr) {
        spans->Record("protocol.decode", static_cast<int64_t>(id), -1,
                      decode_start, NowNs());
      }
      // Answers to requests of an earlier phase arrive after it timed
      // them out; they stay counted as lost.
      if (id < begin || id >= end) continue;
      WireRecord& record = records_[id];
      if (record.status != Status::kPending) continue;
      record.status = status;
      record.recv_ns = arrived;
      record.answer = std::move(answer);
      ++settled;
    }
    return settled;
  }

  std::vector<Session>& sessions_;
  std::vector<WireRecord>& records_;
  const std::vector<core::QueryRequest>& requests_;
};

}  // namespace

WireResult RunWireLeg(const core::ShardedQueryEngine& engine,
                      const std::vector<core::QueryRequest>& requests,
                      const Oracle& oracle, const WireConfig& config,
                      Tracer* tracer, Report* report) {
  WireResult result;
  if (requests.size() < config.requests()) {
    result.error = "request stream shorter than the leg";
    return result;
  }
  server::ServerOptions options;
  options.num_workers = 2;
  server::Server srv(engine, /*epoch=*/0, options);
  if (!srv.Start(&result.error)) return result;

  std::vector<Session> sessions(2);
  for (Session& s : sessions) {
    if (!OpenSession(srv.port(), &s, &result.error)) {
      for (Session& t : sessions) CloseSession(&t);
      srv.Stop();
      return result;
    }
  }
  const size_t sent = config.requests();
  std::vector<WireRecord> records(sent);
  Generator generator(&sessions, &records, requests);
  SpanBuffer* spans = tracer->NewBuffer();
  const uint64_t phase_seed = lbsq::DeriveStreamSeed(config.seed, 0x77697265);
  const bool whole =
      generator.Run(0, config.warmup, config.rate, phase_seed, nullptr) &&
      generator.Run(config.warmup, sent, config.rate, phase_seed + 1, spans);
  for (Session& s : sessions) CloseSession(&s);
  srv.Stop();
  if (!whole) {
    result.error = "a session broke";
    return result;
  }

  // Check every answer: field for field against in-process execution, and
  // the answer plane against the oracle. A request left unanswered (shed,
  // error or timeout) counts as failed.
  std::vector<Tally> tallies(static_cast<size_t>(VerifyThreads()));
  std::atomic<size_t> next_tally{0};
  ParallelFor(sent, VerifyThreads(), [&](size_t begin, size_t end) {
    Tally& tally = tallies[next_tally++];
    core::ShardedQueryWorkspace workspace;
    core::QueryOutcome outcome;
    for (size_t i = begin; i < end; ++i) {
      const WireRecord& r = records[i];
      ++tally.attempted;
      if (r.status != Status::kAnswer) {
        ++tally.failed;
        continue;
      }
      const server::QueryCall call = ToCall(requests[i], i);
      engine.Execute(FromCall(call, engine), workspace, &outcome);
      const server::QueryAnswer expected = server::BuildAnswer(call, outcome);
      if (!SameAnswer(r.answer, expected) ||
          AnswerDigest(r.answer) != oracle(requests[i])) {
        ++tally.failed;
        ++tally.wrong;
      }
    }
  });
  for (const Tally& t : tallies) result.tally.Merge(t);

  // The server/protocol layers from the traced phase, then each answered
  // request re-executed in process to split off the engine time.
  std::vector<double> lag_us;
  for (size_t i = config.warmup; i < sent; ++i) {
    if (records[i].sent_ns != 0) {
      lag_us.push_back(
          static_cast<double>(records[i].sent_ns - records[i].due_ns) / 1e3);
    }
  }
  report->Set("generator.lag_p99_us", Summarize(&lag_us).tail, "us");
  std::vector<double> enc = tracer->DurationsUs("protocol.encode");
  std::vector<double> dec = tracer->DurationsUs("protocol.decode");
  report->Set("protocol.encode_ns", Summarize(&enc).p50 * 1e3, "ns");
  report->Set("protocol.decode_ns", Summarize(&dec).p50 * 1e3, "ns");
  const server::ServerCounters& counters = srv.counters();
  const double queries = static_cast<double>(
      std::max<int64_t>(counters.queries_executed.load(), 1));
  report->Set("server.retry_after_per_query",
              static_cast<double>(counters.retry_after_sent.load()) / queries,
              "count");
  report->Set("server.bytes_per_query",
              static_cast<double>(counters.bytes_sent.load() +
                                  counters.bytes_received.load()) /
                  queries,
              "B");
  report->Set("server.frames_per_query",
              static_cast<double>(counters.frames_sent.load() +
                                  counters.frames_received.load()) /
                  queries,
              "count");

  std::vector<double> overhead_us;
  core::ShardedQueryWorkspace workspace;
  core::QueryOutcome outcome;
  for (size_t i = config.warmup; i < sent; ++i) {
    const WireRecord& r = records[i];
    if (r.status != Status::kAnswer) continue;
    const int64_t root = spans->Record("wire.request", static_cast<int64_t>(i),
                                       -1, r.due_ns, r.recv_ns);
    const core::QueryRequest request =
        FromCall(ToCall(requests[i], i), engine);
    const int64_t start = NowNs();
    engine.Execute(request, workspace, &outcome);
    const int64_t end = NowNs();
    spans->Record("wire.execute", static_cast<int64_t>(i), root, start, end);
    overhead_us.push_back(
        static_cast<double>((r.recv_ns - r.sent_ns) - (end - start)) / 1e3);
  }
  SetTiming(report, "server.overhead", "us", Summarize(&overhead_us));
  result.ok = true;
  return result;
}

}  // namespace perfbench
