#include "robust/net/server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#if defined(__linux__)
#include <sys/epoll.h>
#define ROBUST_NET_HAS_EPOLL 1
#else
#define ROBUST_NET_HAS_EPOLL 0
#endif

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "robust/obs/flight.hpp"
#include "robust/obs/json_lite.hpp"
#include "robust/obs/metrics.hpp"
#include "robust/obs/report.hpp"
#include "robust/util/error.hpp"
#include "robust/util/lru_cache.hpp"
#include "robust/util/thread_pool.hpp"

namespace robust::net {

namespace {

using util::Diagnostics;
using util::ParseError;
using util::RejectCategory;

void obsCount(const char* name, std::uint64_t delta = 1) {
  if (obs::enabled()) [[unlikely]] {
    obs::addCounter(obs::counterId(name), delta);
  }
}

/// A frame type's stable lower-case metrics label ("net.frames{type=...}")
/// and its flight-recorder arrival event (string literals: the recorder
/// stores only the pointer).
struct FrameNames {
  const char* label;
  const char* flight;
};
FrameNames frameNames(FrameType type) noexcept {
  switch (type) {
    case FrameType::Hello:
      return {"hello", "robustd.frame.hello"};
    case FrameType::Register:
      return {"register", "robustd.frame.register"};
    case FrameType::Analyze:
      return {"analyze", "robustd.frame.analyze"};
    case FrameType::Bye:
      return {"bye", "robustd.frame.bye"};
    case FrameType::Stats:
      return {"stats", "robustd.frame.stats"};
    case FrameType::TraceDump:
      return {"trace_dump", "robustd.frame.trace_dump"};
    default:
      return {"other", "robustd.frame.other"};
  }
}

/// Always-on per-tenant latency digest: the exact bucket shape of the obs
/// registry histograms, but owned by the IO thread (no sharding needed —
/// one writer), so STATS carries p50/p95/p99 even with ROBUST_OBS=0.
struct LatencyDigest {
  std::uint64_t count = 0;
  std::uint64_t sumNanos = 0;
  std::array<std::uint64_t, obs::kHistogramBuckets> buckets{};

  void record(std::int64_t nanos) noexcept {
    ++count;
    sumNanos += nanos <= 0 ? 0 : static_cast<std::uint64_t>(nanos);
    ++buckets[obs::latencyBucketIndex(nanos)];
  }

  [[nodiscard]] std::int64_t quantileUpperNanos(double q) const noexcept {
    return obs::latencyQuantileUpperNanos(buckets, count, q);
  }
};

/// Everything the daemon knows about one tenant name, across all of its
/// sessions, live and closed. Owned by the IO thread; folded into the
/// STATS document. Totals accrue exactly once per event (frame accepted,
/// completion drained, reject sent), so a snapshot under concurrent load
/// equals the offline ledger.
struct TenantTotals {
  std::uint64_t sessions = 0;  ///< sessions that completed HELLO as this tenant
  std::uint64_t frames = 0;
  std::uint64_t batches = 0;
  std::uint64_t instances = 0;
  std::uint64_t registers = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t cacheMisses = 0;
  std::array<std::uint64_t, util::kRejectCategoryCount> rejects{};
  double virtualTime = 0.0;  ///< largest admission virtual time reached
  double chargedCost = 0.0;
  LatencyDigest analyzeLatency;  ///< ANALYZE pool execution time
  LatencyDigest compileLatency;  ///< REGISTER pool execution time
  LatencyDigest queueLatency;    ///< admission-to-pool wait, both kinds
};

void setNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  (void)::fcntl(fd, F_SETFD, FD_CLOEXEC);
}

/// Readiness backend: epoll where available, poll(2) otherwise or when
/// forced (ServerOptions::forcePoll / ROBUST_NET_POLL). Both present the
/// same three-flag event view, so the IO loop is backend-agnostic.
class Poller {
 public:
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;
  };

  explicit Poller(bool forcePoll) {
    const char* env = std::getenv("ROBUST_NET_POLL");
    const bool envForce =
        env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
    usePoll_ = forcePoll || envForce || ROBUST_NET_HAS_EPOLL == 0;
#if ROBUST_NET_HAS_EPOLL
    if (!usePoll_) {
      epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
      if (epfd_ < 0) {
        usePoll_ = true;  // degraded but functional
      }
    }
#endif
  }

  ~Poller() {
#if ROBUST_NET_HAS_EPOLL
    if (epfd_ >= 0) {
      ::close(epfd_);
    }
#endif
  }

  [[nodiscard]] bool usingPoll() const noexcept { return usePoll_; }

  void add(int fd, bool rd, bool wr) {
    if (usePoll_) {
      interest_[fd] = {rd, wr};
      return;
    }
#if ROBUST_NET_HAS_EPOLL
    epoll_event ev{};
    ev.events = mask(rd, wr);
    ev.data.fd = fd;
    (void)::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
#endif
  }

  void mod(int fd, bool rd, bool wr) {
    if (usePoll_) {
      interest_[fd] = {rd, wr};
      return;
    }
#if ROBUST_NET_HAS_EPOLL
    epoll_event ev{};
    ev.events = mask(rd, wr);
    ev.data.fd = fd;
    (void)::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
#endif
  }

  void del(int fd) {
    if (usePoll_) {
      interest_.erase(fd);
      return;
    }
#if ROBUST_NET_HAS_EPOLL
    (void)::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
#endif
  }

  void wait(std::vector<Event>& out, int timeoutMs) {
    out.clear();
    if (usePoll_) {
      pollfds_.clear();
      for (const auto& [fd, rw] : interest_) {
        pollfd p{};
        p.fd = fd;
        p.events = static_cast<short>((rw.first ? POLLIN : 0) |
                                      (rw.second ? POLLOUT : 0));
        pollfds_.push_back(p);
      }
      const int n = ::poll(pollfds_.data(),
                           static_cast<nfds_t>(pollfds_.size()), timeoutMs);
      if (n <= 0) {
        return;
      }
      for (const pollfd& p : pollfds_) {
        if (p.revents == 0) {
          continue;
        }
        Event ev;
        ev.fd = p.fd;
        ev.readable = (p.revents & POLLIN) != 0;
        ev.writable = (p.revents & POLLOUT) != 0;
        ev.error = (p.revents & (POLLERR | POLLHUP | POLLNVAL)) != 0;
        out.push_back(ev);
      }
      return;
    }
#if ROBUST_NET_HAS_EPOLL
    epollEvents_.resize(64);
    const int n = ::epoll_wait(epfd_, epollEvents_.data(),
                               static_cast<int>(epollEvents_.size()),
                               timeoutMs);
    for (int i = 0; i < n; ++i) {
      Event ev;
      ev.fd = epollEvents_[i].data.fd;
      ev.readable = (epollEvents_[i].events & EPOLLIN) != 0;
      ev.writable = (epollEvents_[i].events & EPOLLOUT) != 0;
      ev.error = (epollEvents_[i].events & (EPOLLERR | EPOLLHUP)) != 0;
      out.push_back(ev);
    }
#endif
  }

 private:
#if ROBUST_NET_HAS_EPOLL
  [[nodiscard]] static std::uint32_t mask(bool rd, bool wr) noexcept {
    return (rd ? EPOLLIN : 0u) | (wr ? EPOLLOUT : 0u);
  }
  int epfd_ = -1;
  std::vector<epoll_event> epollEvents_;
#endif
  bool usePoll_ = false;
  std::map<int, std::pair<bool, bool>> interest_;
  std::vector<pollfd> pollfds_;
};

/// The shared compile cache's key: REGISTER payload bytes plus their
/// FNV-1a hash (the REGISTER_OK key), hashed once per request. Equality
/// compares the bytes, so a colliding spec is a second entry.
struct SpecKey {
  std::uint64_t hash = 0;
  std::vector<std::uint8_t> bytes;
  bool operator==(const SpecKey&) const = default;
};
struct SpecKeyHash {
  std::size_t operator()(const SpecKey& key) const noexcept {
    return static_cast<std::size_t>(key.hash);
  }
};
using ProblemCache =
    util::LruCache<SpecKey, std::shared_ptr<const core::CompiledProblem>,
                   SpecKeyHash>;

struct Work {
  enum class Kind { Register, Analyze };
  Kind kind = Kind::Analyze;
  std::uint32_t requestId = 0;
  double cost = 1.0;        ///< fairness charge (instances, or bytes/4KiB)
  std::size_t bytes = 0;    ///< backpressure accounting
  std::int64_t enqueueNanos = 0;  ///< admission timestamp (queue-wait digest)
  std::vector<std::uint8_t> specBytes;                      // Register
  std::shared_ptr<const core::CompiledProblem> problem;     // Analyze
  std::vector<double> origins;                              // Analyze
  std::uint32_t count = 0;                                  // Analyze
};

struct Completion {
  std::uint64_t sessionId = 0;
  std::vector<std::uint8_t> frame;  ///< encoded reply, ready to send
  std::size_t releasedBytes = 0;    ///< the work's backpressure charge
  // Session-side effects, applied on the IO thread if the session lives:
  std::shared_ptr<const core::CompiledProblem> install;
  std::uint64_t installKey = 0;
  bool rejected = false;
  RejectCategory rejectCategory = RejectCategory::Other;
  std::uint64_t batches = 0;
  std::uint64_t instances = 0;
  std::uint64_t registers = 0;
  std::uint64_t cacheHit = 0;
  std::uint64_t cacheMiss = 0;
  std::uint64_t cacheEvictions = 0;
  std::int64_t queueNanos = 0;  ///< admission-to-pool wait
  std::int64_t execNanos = 0;   ///< pool execution time
};

struct Session {
  std::uint64_t id = 0;
  int fd = -1;
  bool helloDone = false;
  bool closing = false;        ///< no further reads; flush, then close
  bool sawFatal = false;       ///< framing lost; pending work discarded
  std::optional<std::uint32_t> byeRequestId;
  std::string tenant;
  std::uint32_t weight = 1;
  std::uint64_t declaredDemand = 1;
  double virtualTime = 0.0;
  double chargedCost = 0.0;

  std::vector<std::uint8_t> in;
  std::size_t inPos = 0;
  std::deque<std::vector<std::uint8_t>> out;
  std::size_t outPos = 0;    ///< offset into out.front()
  std::size_t outBytes = 0;  ///< total unsent reply bytes
  std::deque<Work> pending;
  std::size_t inflight = 0;  ///< 0 or 1: per-session FIFO replies
  std::size_t backlogBytes = 0;  ///< pending + inflight + out bytes
  bool paused = false;
  bool wantRead = true;
  bool wantWrite = false;

  std::unordered_map<std::uint64_t,
                     std::shared_ptr<const core::CompiledProblem>>
      problems;

  // Run-report accounting.
  std::uint64_t frames = 0;
  std::uint64_t batches = 0;
  std::uint64_t instancesDone = 0;
  std::uint64_t registersDone = 0;
  std::array<std::uint64_t, util::kRejectCategoryCount> rejects{};
  bool disconnected = false;  ///< peer vanished uncleanly
};

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions opts)
      : options(std::move(opts)),
        cache(options.cacheCapacity),
        pool(options.workers) {}

  ServerOptions options;
  ProblemCache cache;
  ThreadPool pool;
  std::unique_ptr<Poller> poller;  // created in start()

  int listenFd = -1;
  int wakeRead = -1;
  int wakeWrite = -1;
  std::uint16_t boundPort = 0;
  std::thread ioThread;
  std::atomic<bool> stopping{false};
  bool started = false;

  std::uint64_t nextSessionId = 1;
  std::unordered_map<int, std::unique_ptr<Session>> sessions;  // by fd
  std::unordered_map<std::uint64_t, int> fdOfSession;
  double vtFloor = 0.0;        ///< system virtual time for new arrivals
  std::size_t poolBusy = 0;    ///< requests currently on the pool
  /// Per-tenant totals across live AND closed sessions (std::map: the
  /// STATS document iterates it in sorted, deterministic order). IO thread
  /// only.
  std::map<std::string, TenantTotals> tenants;
  std::size_t backlogHighWater = 0;  ///< IO-thread shadow of the stat
  std::uint64_t flightDumps = 0;     ///< on-fatal dumps written so far

  mutable std::mutex mutex;    ///< completions + stats
  std::vector<Completion> completions;
  ServerStats stats;

  // ------------------------------------------------------------- helpers

  void wake() {
    const char byte = 1;
    ssize_t ignored = ::write(wakeWrite, &byte, 1);
    (void)ignored;
  }

  void syncInterest(Session& s) {
    const bool rd = s.wantRead && !s.closing;
    poller->mod(s.fd, rd, s.wantWrite);
  }

  /// Backpressure high-water tracking: called on every backlog increase.
  void noteBacklog(const Session& s) {
    if (s.backlogBytes > backlogHighWater) {
      backlogHighWater = s.backlogBytes;
      std::lock_guard lock(mutex);
      stats.backlogHighWaterBytes = backlogHighWater;
    }
  }

  void appendReply(Session& s, std::vector<std::uint8_t> frame) {
    s.outBytes += frame.size();
    s.backlogBytes += frame.size();
    s.out.push_back(std::move(frame));
    noteBacklog(s);
    if (!s.wantWrite) {
      s.wantWrite = true;
      syncInterest(s);
    }
  }

  void recordReject(Session& s, RejectCategory category) {
    const auto idx = static_cast<std::size_t>(category);
    s.rejects[idx]++;
    if (s.helloDone) {
      tenants[s.tenant].rejects[idx]++;
    }
    {
      std::lock_guard lock(mutex);
      stats.rejects[idx]++;
    }
    if (obs::enabled()) [[unlikely]] {
      obs::addCounter(obs::counterId(std::string("net.reject.") +
                                     util::rejectCategoryName(category)));
    }
  }

  void sendReject(Session& s, std::uint32_t requestId,
                  RejectCategory category, bool fatal, std::string message) {
    std::vector<std::uint8_t> payload;
    encodeReject(RejectInfo{category, fatal, std::move(message)}, payload);
    appendReply(s, buildFrame(FrameType::Reject, requestId, payload));
    recordReject(s, category);
    if (fatal) {
      // Framing can no longer be trusted: stop reading, drop queued work
      // (its replies could interleave with a corrupt stream), flush the
      // reject, close. Other sessions are untouched.
      s.sawFatal = true;
      s.closing = true;
      discardPending(s);
      syncInterest(s);
      dumpFlightOnFatal();
    }
  }

  /// The operator's post-mortem: on a fatal reject, persist what every
  /// thread was doing in the moments before framing was lost. Telemetry
  /// must never take the daemon down, so failures are swallowed.
  void dumpFlightOnFatal() {
    if (options.flightDir.empty()) {
      return;
    }
    try {
      std::filesystem::create_directories(options.flightDir);
      ++flightDumps;
      obs::writeFlightTrace(options.flightDir + "/robustd_flight_fatal_" +
                            std::to_string(flightDumps) + ".json");
    } catch (const std::exception&) {
    }
  }

  void discardPending(Session& s) {
    for (const Work& w : s.pending) {
      s.backlogBytes -= std::min(s.backlogBytes, w.bytes);
    }
    s.pending.clear();
  }

  void updatePause(Session& s) {
    if (!s.paused && s.backlogBytes > options.maxInflightBytes) {
      s.paused = true;
      s.wantRead = false;
      syncInterest(s);
      {
        std::lock_guard lock(mutex);
        stats.backpressureStalls++;
      }
      obsCount("net.backpressure_stalls");
    } else if (s.paused && s.backlogBytes <= options.maxInflightBytes / 2) {
      s.paused = false;
      s.wantRead = true;
      syncInterest(s);
    }
  }

  // --------------------------------------------------------- lifecycle

  void openListenSocket() {
    if (!options.unixPath.empty()) {
      sockaddr_un addr{};
      if (options.unixPath.size() >= sizeof(addr.sun_path)) {
        throw std::runtime_error("robustd: unix socket path too long: " +
                                 options.unixPath);
      }
      listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (listenFd < 0) {
        throw std::runtime_error("robustd: socket() failed");
      }
      ::unlink(options.unixPath.c_str());
      addr.sun_family = AF_UNIX;
      std::memcpy(addr.sun_path, options.unixPath.c_str(),
                  options.unixPath.size() + 1);
      if (::bind(listenFd, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        ::close(listenFd);
        listenFd = -1;
        throw std::runtime_error("robustd: cannot bind unix socket '" +
                                 options.unixPath + "': " +
                                 std::strerror(errno));
      }
    } else {
      listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (listenFd < 0) {
        throw std::runtime_error("robustd: socket() failed");
      }
      const int one = 1;
      (void)::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(options.tcpPort);
      if (::bind(listenFd, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) != 0) {
        ::close(listenFd);
        listenFd = -1;
        throw std::runtime_error(
            "robustd: cannot bind 127.0.0.1:" +
            std::to_string(options.tcpPort) + ": " + std::strerror(errno));
      }
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      (void)::getsockname(listenFd, reinterpret_cast<sockaddr*>(&bound),
                          &len);
      boundPort = ntohs(bound.sin_port);
    }
    if (::listen(listenFd, 128) != 0) {
      ::close(listenFd);
      listenFd = -1;
      throw std::runtime_error("robustd: listen() failed");
    }
    setNonBlocking(listenFd);
  }

  void acceptAll() {
    for (;;) {
      const int fd = ::accept(listenFd, nullptr, nullptr);
      if (fd < 0) {
        return;  // EAGAIN or transient error: nothing more to accept
      }
      setNonBlocking(fd);
      auto session = std::make_unique<Session>();
      session->id = nextSessionId++;
      session->fd = fd;
      session->virtualTime = vtFloor;
      fdOfSession[session->id] = fd;
      poller->add(fd, true, false);
      sessions[fd] = std::move(session);
      {
        std::lock_guard lock(mutex);
        stats.sessionsOpened++;
        stats.sessionsActive++;
      }
      obsCount("net.sessions_opened");
    }
  }

  void writeRunReportFor(const Session& s) {
    if (options.reportDir.empty()) {
      return;
    }
    try {
      std::filesystem::create_directories(options.reportDir);
      obs::RunReport report;
      report.tool = "robustd";
      // report_check requires the metrics section even when obs is off
      // (it is empty then), so always emit it.
      report.includeMetrics = true;
      report.info.emplace_back("session", std::to_string(s.id));
      report.info.emplace_back("tenant", s.tenant);
      report.info.emplace_back("declared_demand",
                               std::to_string(s.declaredDemand));
      report.info.emplace_back("close",
                               s.disconnected ? "disconnect" : "clean");
      report.benchmarks = {
          {"frames", static_cast<double>(s.frames), "count"},
          {"batches", static_cast<double>(s.batches), "count"},
          {"instances", static_cast<double>(s.instancesDone), "count"},
          {"registers", static_cast<double>(s.registersDone), "count"},
          {"charged_cost", s.chargedCost, "instances_per_weight"}};
      for (std::size_t c = 0; c < util::kRejectCategoryCount; ++c) {
        report.benchmarks.push_back(obs::BenchResult{
            std::string("rejects_") +
                util::rejectCategoryName(static_cast<RejectCategory>(c)),
            static_cast<double>(s.rejects[c]), "count"});
      }
      obs::writeRunReport(options.reportDir + "/robustd_session_" +
                              std::to_string(s.id) + ".json",
                          report);
    } catch (const std::exception&) {
      // Telemetry must never take a session teardown down with it.
    }
  }

  /// Final teardown of one session: report, unregister, close, reclaim.
  /// Pool work already dispatched for it completes into a dropped
  /// Completion (looked up by id, not pointer), so this is safe even with
  /// inflight != 0 on an unclean disconnect.
  void closeSession(Session& s, bool disconnected) {
    s.disconnected = s.disconnected || disconnected;
    writeRunReportFor(s);
    poller->del(s.fd);
    ::close(s.fd);
    fdOfSession.erase(s.id);
    const int fd = s.fd;
    {
      std::lock_guard lock(mutex);
      stats.sessionsClosed++;
      stats.sessionsActive--;
      if (disconnected) {
        stats.disconnects++;
      }
    }
    obsCount("net.sessions_closed");
    sessions.erase(fd);  // destroys s
  }

  void abortSession(Session& s) {
    discardPending(s);
    closeSession(s, /*disconnected=*/true);
  }

  /// Clean-close progress: once a closing session has drained its queue,
  /// emit the deferred BYE_OK (so it never overtakes queued results), and
  /// once the last reply byte is flushed, tear down.
  void maybeFinish(Session& s) {
    if (!s.closing) {
      return;
    }
    if (s.pending.empty() && s.inflight == 0 && s.byeRequestId) {
      std::vector<std::uint8_t> empty;
      appendReply(s, buildFrame(FrameType::ByeOk, *s.byeRequestId, empty));
      s.byeRequestId.reset();
    }
    if (s.pending.empty() && s.inflight == 0 && s.outBytes == 0 &&
        !s.byeRequestId) {
      closeSession(s, /*disconnected=*/false);
    }
  }

  // -------------------------------------------------------- fair queue

  /// Starts as much admitted work as the pool can hold, always picking the
  /// runnable session with the lowest virtual time (weighted fair
  /// queuing); ties break on session id for determinism.
  void dispatch() {
    while (poolBusy < pool.size()) {
      Session* chosen = nullptr;
      for (auto& [fd, sp] : sessions) {
        Session& s = *sp;
        if (s.pending.empty() || s.inflight != 0) {
          continue;
        }
        if (chosen == nullptr || s.virtualTime < chosen->virtualTime ||
            (s.virtualTime == chosen->virtualTime && s.id < chosen->id)) {
          chosen = &s;
        }
      }
      if (chosen == nullptr) {
        return;
      }
      vtFloor = std::max(vtFloor, chosen->virtualTime);
      Work work = std::move(chosen->pending.front());
      chosen->pending.pop_front();
      const double charge =
          work.cost / static_cast<double>(std::max<std::uint32_t>(
                          1, chosen->weight));
      chosen->virtualTime += charge;
      chosen->chargedCost += charge;
      TenantTotals& totals = tenants[chosen->tenant];
      totals.virtualTime = std::max(totals.virtualTime, chosen->virtualTime);
      totals.chargedCost += charge;
      chosen->inflight = 1;
      ++poolBusy;
      submitWork(chosen->id, std::move(work));
    }
  }

  void submitWork(std::uint64_t sessionId, Work&& work) {
    // std::function demands copyable callables; the work rides a
    // shared_ptr.
    auto shared = std::make_shared<Work>(std::move(work));
    pool.submit([this, sessionId, shared] {
      Completion done = runWork(*shared);
      done.sessionId = sessionId;
      done.releasedBytes = shared->bytes;
      {
        std::lock_guard lock(mutex);
        completions.push_back(std::move(done));
      }
      wake();
    });
  }

  /// Executes one admitted request on a pool thread. Never throws: every
  /// failure becomes a categorized non-fatal reject reply.
  Completion runWork(const Work& work) {
    const std::int64_t startNanos = obs::detail::nowNanos();
    Completion done = runWorkInner(work);
    const std::int64_t endNanos = obs::detail::nowNanos();
    done.queueNanos = startNanos - work.enqueueNanos;
    done.execNanos = endNanos - startNanos;
    obs::recordFlight(work.kind == Work::Kind::Register
                          ? "robustd.work.register"
                          : "robustd.work.analyze",
                      work.requestId, startNanos, endNanos - startNanos);
    return done;
  }

  Completion runWorkInner(const Work& work) {
    Completion done;
    try {
      if (work.kind == Work::Kind::Register) {
        const SpecKey key{fnv1a(work.specBytes), work.specBytes};
        ProblemCache::Lookup outcome = cache.getOrCompute(key, [&] {
          const Diagnostics diag("robustd:register");
          return std::make_shared<const core::CompiledProblem>(
              core::CompiledProblem::compile(
                  decodeProblemSpec(work.specBytes, options.limits, diag)));
        });
        std::vector<std::uint8_t> payload;
        encodeRegisterOk(key.hash, outcome.hit, payload);
        done.frame = buildFrame(FrameType::RegisterOk, work.requestId,
                                payload);
        done.install = std::move(outcome.value);
        done.installKey = key.hash;
        done.registers = 1;
        done.cacheHit = outcome.hit ? 1 : 0;
        done.cacheMiss = outcome.hit ? 0 : 1;
        done.cacheEvictions = outcome.evictions;
        return done;
      }
      const core::CompiledProblem& problem = *work.problem;
      const std::size_t dim = problem.dimension();
      const Diagnostics diag("robustd:analyze");
      for (std::size_t i = 0; i < work.origins.size(); ++i) {
        if (!std::isfinite(work.origins[i])) {
          // 1-based instance/component provenance, like the .rbi loader.
          diag.fail(RejectCategory::Domain, i / dim + 1, i % dim + 1,
                    "origin component " +
                        util::formatValue(work.origins[i]) +
                        " is not finite");
        }
      }
      std::vector<core::AnalysisInstance> instances(work.count);
      for (std::uint32_t i = 0; i < work.count; ++i) {
        instances[i].origin =
            std::span<const double>(work.origins.data() + i * dim, dim);
      }
      // threads = 1: requests are the unit of parallelism here (the pool
      // fans out across tenants). analyzeBatchMetric is bit-identical for
      // every thread count, so this changes nothing the client can see.
      const std::vector<core::MetricResult> metrics =
          problem.analyzeBatchMetric(instances, /*threads=*/1);
      std::vector<WireResult> results(work.count);
      const bool constrained = !problem.constraints().empty();
      for (std::uint32_t i = 0; i < work.count; ++i) {
        results[i].rho = metrics[i].metric;
        results[i].bindingFeature =
            static_cast<std::uint32_t>(metrics[i].bindingFeature);
        results[i].floored = metrics[i].floored;
        results[i].infeasibleOrigin =
            constrained && !problem.originFeasible(instances[i].origin);
      }
      std::vector<std::uint8_t> payload;
      encodeResult(results, payload);
      done.frame = buildFrame(FrameType::Result, work.requestId, payload);
      done.batches = 1;
      done.instances = work.count;
      return done;
    } catch (const ParseError& e) {
      done.rejected = true;
      done.rejectCategory = e.diagnostic().category;
      std::vector<std::uint8_t> payload;
      encodeReject(RejectInfo{e.diagnostic().category, false,
                              e.diagnostic().format()},
                   payload);
      done.frame = buildFrame(FrameType::Reject, work.requestId, payload);
      return done;
    } catch (const std::exception& e) {
      // Compile-time contract violations (InvalidArgumentError) and
      // anything else the engine throws: the tenant hears a categorized
      // reject; the daemon and every other tenant keep running.
      done.rejected = true;
      done.rejectCategory = RejectCategory::Domain;
      std::vector<std::uint8_t> payload;
      encodeReject(RejectInfo{RejectCategory::Domain, false, e.what()},
                   payload);
      done.frame = buildFrame(FrameType::Reject, work.requestId, payload);
      return done;
    }
  }

  void drainCompletions() {
    std::vector<Completion> batch;
    {
      std::lock_guard lock(mutex);
      batch.swap(completions);
    }
    for (Completion& done : batch) {
      --poolBusy;
      const auto fdIt = fdOfSession.find(done.sessionId);
      {
        std::lock_guard lock(mutex);
        stats.batches += done.batches;
        stats.instances += done.instances;
        stats.registers += done.registers;
        stats.cacheHits += done.cacheHit;
        stats.cacheMisses += done.cacheMiss;
        stats.cacheEvictions += done.cacheEvictions;
      }
      if (done.batches > 0) {
        obsCount("net.batches", done.batches);
        obsCount("net.instances", done.instances);
      }
      if (fdIt == fdOfSession.end()) {
        continue;  // session vanished mid-flight; the reply has no reader
      }
      Session& s = *sessions.at(fdIt->second);
      s.inflight = 0;
      s.backlogBytes -= std::min(s.backlogBytes, done.releasedBytes);
      s.batches += done.batches;
      s.instancesDone += done.instances;
      s.registersDone += done.registers;
      // Per-tenant ledger: pool work only exists after HELLO, so the
      // tenant name is always set here.
      TenantTotals& totals = tenants[s.tenant];
      totals.batches += done.batches;
      totals.instances += done.instances;
      totals.registers += done.registers;
      totals.cacheHits += done.cacheHit;
      totals.cacheMisses += done.cacheMiss;
      if (done.batches > 0 || done.registers > 0) {
        totals.queueLatency.record(done.queueNanos);
      }
      if (done.batches > 0) {
        totals.analyzeLatency.record(done.execNanos);
      }
      if (done.registers > 0) {
        totals.compileLatency.record(done.execNanos);
      }
      if (obs::enabled()) [[unlikely]] {
        if (done.batches > 0) {
          obs::addCounter(obs::counterId("net.instances", "tenant", s.tenant),
                          done.instances);
          obs::recordLatency(
              obs::histogramId("net.latency.analyze", "tenant", s.tenant),
              done.execNanos);
        }
        if (done.registers > 0) {
          obs::recordLatency(
              obs::histogramId("net.latency.compile", "tenant", s.tenant),
              done.execNanos);
        }
      }
      if (done.rejected) {
        recordReject(s, done.rejectCategory);
      }
      if (done.install) {
        s.problems[done.installKey] = std::move(done.install);
      }
      appendReply(s, std::move(done.frame));
      updatePause(s);
      maybeFinish(s);
    }
    dispatch();
  }

  // ------------------------------------------------------------- stats

  /// `prefix` (JSON punctuation and key) followed by the value.
  static void appendInt(std::string& out, std::string_view prefix,
                        std::uint64_t value) {
    out += prefix;
    out += std::to_string(value);
  }
  static void appendNumber(std::string& out, std::string_view prefix,
                           double value) {
    out += prefix;
    out += obs::json::number(value);
  }

  static void appendDigest(std::string& out, const char* key,
                           const LatencyDigest& digest) {
    out += '"';
    out += key;
    appendInt(out, "\":{\"count\":", digest.count);
    appendInt(out, ",\"sum_nanos\":", digest.sumNanos);
    appendInt(out, ",\"p50_nanos\":", digest.quantileUpperNanos(0.50));
    appendInt(out, ",\"p95_nanos\":", digest.quantileUpperNanos(0.95));
    appendInt(out, ",\"p99_nanos\":", digest.quantileUpperNanos(0.99));
    out += '}';
  }

  /// The robust.stats document. Runs on the IO thread, which owns the
  /// sessions and the tenant ledger, so the snapshot is internally
  /// consistent: every completed batch is either in the counters or not
  /// yet drained — never half-applied. Key order is fixed and tenants
  /// iterate sorted, so two servers that did the same work produce
  /// structurally identical documents.
  std::string buildStatsJson() {
    ServerStats st;
    {
      std::lock_guard lock(mutex);
      st = stats;
    }
    std::size_t pausedSessions = 0;
    for (const auto& [fd, sp] : sessions) {
      if (sp->paused) {
        ++pausedSessions;
      }
    }
    std::string out;
    out.reserve(1024 + tenants.size() * 640);
    out += "{\"schema\":\"";
    out += kStatsSchemaName;
    appendInt(out, "\",\"schema_version\":", kStatsSchemaVersion);
    out += ",\"tool\":\"robustd\"";

    appendInt(out, ",\"server\":{\"sessions_opened\":", st.sessionsOpened);
    appendInt(out, ",\"sessions_closed\":", st.sessionsClosed);
    appendInt(out, ",\"sessions_active\":", st.sessionsActive);
    appendInt(out, ",\"frames\":", st.framesHandled);
    appendInt(out, ",\"batches\":", st.batches);
    appendInt(out, ",\"instances\":", st.instances);
    appendInt(out, ",\"registers\":", st.registers);
    appendInt(out, ",\"disconnects\":", st.disconnects);
    appendInt(out, ",\"stats_requests\":", st.statsRequests);
    appendInt(out, ",\"trace_dumps\":", st.traceDumps);
    appendInt(out, ",\"pool_workers\":", pool.size());
    appendInt(out, ",\"pool_busy\":", poolBusy);
    appendNumber(out, ",\"virtual_time_floor\":", vtFloor);
    out += '}';

    appendInt(out, ",\"cache\":{\"hits\":", st.cacheHits);
    appendInt(out, ",\"misses\":", st.cacheMisses);
    appendInt(out, ",\"evictions\":", st.cacheEvictions);
    appendInt(out, ",\"entries\":", cache.size());
    appendInt(out, ",\"capacity\":", options.cacheCapacity);
    out += '}';

    appendInt(out, ",\"backpressure\":{\"stalls\":", st.backpressureStalls);
    appendInt(out, ",\"max_inflight_bytes\":", options.maxInflightBytes);
    appendInt(out, ",\"backlog_high_water_bytes\":", st.backlogHighWaterBytes);
    appendInt(out, ",\"paused_sessions\":", pausedSessions);
    out += '}';

    out += ",\"rejects\":{";
    for (std::size_t c = 0; c < util::kRejectCategoryCount; ++c) {
      if (c != 0) {
        out += ',';
      }
      out += '"';
      out += util::rejectCategoryName(static_cast<RejectCategory>(c));
      appendInt(out, "\":", st.rejects[c]);
    }
    appendInt(out, ",\"total\":", st.rejectsTotal());
    out += '}';

    out += ",\"tenants\":{";
    bool firstTenant = true;
    for (const auto& [name, totals] : tenants) {
      if (!firstTenant) {
        out += ',';
      }
      firstTenant = false;
      out += '"';
      out += obs::json::escape(name);
      appendInt(out, "\":{\"sessions\":", totals.sessions);
      appendInt(out, ",\"frames\":", totals.frames);
      appendInt(out, ",\"batches\":", totals.batches);
      appendInt(out, ",\"instances\":", totals.instances);
      appendInt(out, ",\"registers\":", totals.registers);
      appendInt(out, ",\"cache_hits\":", totals.cacheHits);
      appendInt(out, ",\"cache_misses\":", totals.cacheMisses);
      std::uint64_t rejectsTotal = 0;
      for (std::uint64_t v : totals.rejects) {
        rejectsTotal += v;
      }
      appendInt(out, ",\"rejects_total\":", rejectsTotal);
      appendNumber(out, ",\"virtual_time\":", totals.virtualTime);
      appendNumber(out, ",\"charged_cost\":", totals.chargedCost);
      out += ",\"latency\":{";
      appendDigest(out, "analyze", totals.analyzeLatency);
      out += ',';
      appendDigest(out, "compile", totals.compileLatency);
      out += ',';
      appendDigest(out, "queue", totals.queueLatency);
      out += "}}";
    }
    out += '}';

    appendInt(out, ",\"flight\":{\"records\":", obs::flightRecordCount());
    appendInt(out, ",\"capacity\":", obs::flightCapacity());
    appendInt(out, ",\"dumps\":", flightDumps);
    out += "}}";
    return out;
  }

  // ------------------------------------------------------------ frames

  void handleFrame(Session& s, const FrameHeader& header,
                   std::span<const std::uint8_t> payload) {
    s.frames++;
    if (s.helloDone) {
      tenants[s.tenant].frames++;
    }
    {
      std::lock_guard lock(mutex);
      stats.framesHandled++;
    }
    obsCount("net.frames");
    if (obs::enabled()) [[unlikely]] {
      obs::addCounter(
          obs::counterId("net.frames", "type", frameNames(header.type).label));
    }
    if (obs::flightEnabled()) {
      // Instantaneous arrival marker, requestId-correlated: the dump shows
      // which wire request each queue wait / compile / analyze belongs to.
      obs::recordFlight(frameNames(header.type).flight, header.requestId,
                        obs::detail::nowNanos(), 0);
    }
    const Diagnostics diag("robustd:frame");
    switch (header.type) {
      case FrameType::Hello: {
        if (s.helloDone) {
          sendReject(s, header.requestId, RejectCategory::Structure, false,
                     "robustd: HELLO already completed on this connection");
          return;
        }
        try {
          const HelloRequest hello =
              decodeHello(payload, options.limits, diag);
          s.helloDone = true;
          s.tenant = hello.tenant;
          s.declaredDemand = hello.declaredDemand;
          s.weight = hello.declaredDemand;
          s.virtualTime = std::max(s.virtualTime, vtFloor);
          TenantTotals& totals = tenants[s.tenant];
          totals.sessions++;
          totals.frames++;  // the HELLO frame itself, now attributable
          std::vector<std::uint8_t> reply;
          encodeHelloOk(s.id, reply);
          appendReply(s, buildFrame(FrameType::HelloOk, header.requestId,
                                    reply));
        } catch (const ParseError& e) {
          sendReject(s, header.requestId, e.diagnostic().category, false,
                     e.diagnostic().format());
        }
        return;
      }
      case FrameType::Register: {
        if (!requireHello(s, header.requestId)) {
          return;
        }
        Work work;
        work.kind = Work::Kind::Register;
        work.requestId = header.requestId;
        work.specBytes.assign(payload.begin(), payload.end());
        work.bytes = payload.size();
        // Registration is charged by payload size (the only demand signal
        // available before decoding): one 4-KiB page of spec ~ one
        // instance of analysis.
        work.cost = 1.0 + static_cast<double>(payload.size()) / 4096.0;
        admit(s, std::move(work));
        return;
      }
      case FrameType::Analyze: {
        if (!requireHello(s, header.requestId)) {
          return;
        }
        try {
          const AnalyzeHead head =
              decodeAnalyzeHead(payload, options.limits, diag);
          const auto it = s.problems.find(head.key);
          if (it == s.problems.end()) {
            sendReject(s, header.requestId, RejectCategory::Structure, false,
                       "robustd: unknown problem key " +
                           std::to_string(head.key) +
                           " (REGISTER the spec on this connection first)");
            return;
          }
          const std::size_t dim = it->second->dimension();
          const std::size_t expect =
              kAnalyzeHeadBytes +
              static_cast<std::size_t>(head.instanceCount) * dim * 8;
          if (payload.size() != expect) {
            sendReject(s, header.requestId, RejectCategory::Structure, false,
                       "robustd: ANALYZE payload of " +
                           std::to_string(payload.size()) +
                           " bytes does not match " +
                           std::to_string(head.instanceCount) +
                           " instances of dimension " + std::to_string(dim) +
                           " (expected " + std::to_string(expect) + ")");
            return;
          }
          Work work;
          work.kind = Work::Kind::Analyze;
          work.requestId = header.requestId;
          work.problem = it->second;
          work.count = head.instanceCount;
          work.cost = static_cast<double>(head.instanceCount);
          work.bytes = payload.size();
          work.origins.resize(static_cast<std::size_t>(head.instanceCount) *
                              dim);
          std::memcpy(work.origins.data(),
                      payload.data() + kAnalyzeHeadBytes,
                      work.origins.size() * 8);
          admit(s, std::move(work));
        } catch (const ParseError& e) {
          sendReject(s, header.requestId, e.diagnostic().category, false,
                     e.diagnostic().format());
        }
        return;
      }
      case FrameType::Bye: {
        s.closing = true;
        s.byeRequestId = header.requestId;
        syncInterest(s);
        maybeFinish(s);
        return;
      }
      // Admin frames: answered inline on the IO thread — a snapshot is a
      // read of state this thread already owns, so it never waits behind
      // (or occupies) a pool worker, and no HELLO is required (a monitor
      // is not a tenant).
      case FrameType::Stats:
      case FrameType::TraceDump: {
        try {
          (void)decodeAdminRequest(payload, diag);
        } catch (const ParseError& e) {
          sendReject(s, header.requestId, e.diagnostic().category, false,
                     e.diagnostic().format());
          return;
        }
        if (header.type == FrameType::Stats) {
          {
            std::lock_guard lock(mutex);
            stats.statsRequests++;
          }
          (void)replyText(s, FrameType::StatsOk, header.requestId,
                          buildStatsJson(), "stats snapshot");
          return;
        }
        std::ostringstream dump;
        obs::writeFlightTrace(dump);
        // A refused dump is not drained: the records stay available for
        // an on-fatal file dump, which has no frame cap.
        if (replyText(s, FrameType::TraceDumpOk, header.requestId,
                      dump.str(), "flight dump")) {
          obs::clearFlight();  // drain semantics: each record reported once
          std::lock_guard lock(mutex);
          stats.traceDumps++;
        }
        return;
      }
      default:
        sendReject(s, header.requestId, RejectCategory::Format, false,
                   "robustd: unexpected frame type 0x" +
                       std::to_string(static_cast<unsigned>(header.type)));
        return;
    }
  }

  /// Replies with `text` as the whole payload of a `type` frame, or with a
  /// Domain reject when it exceeds the frame cap. False when rejected.
  bool replyText(Session& s, FrameType type, std::uint32_t requestId,
                 const std::string& text, const char* what) {
    if (text.size() > options.limits.maxFrameBytes) {
      sendReject(s, requestId, RejectCategory::Domain, false,
                 std::string("robustd: ") + what + " of " +
                     std::to_string(text.size()) +
                     " bytes exceeds the frame cap");
      return false;
    }
    appendReply(s, buildFrame(type, requestId,
                              {reinterpret_cast<const std::uint8_t*>(
                                   text.data()),
                               text.size()}));
    return true;
  }

  bool requireHello(Session& s, std::uint32_t requestId) {
    if (s.helloDone) {
      return true;
    }
    sendReject(s, requestId, RejectCategory::Structure, false,
               "robustd: HELLO must precede every other frame");
    return false;
  }

  void admit(Session& s, Work&& work) {
    work.enqueueNanos = obs::detail::nowNanos();
    s.backlogBytes += work.bytes;
    s.pending.push_back(std::move(work));
    noteBacklog(s);
    updatePause(s);
    dispatch();
  }

  void readFrom(Session& s) {
    char chunk[65536];
    for (;;) {
      if (s.paused || s.closing) {
        break;
      }
      const ssize_t n = ::read(s.fd, chunk, sizeof(chunk));
      if (n > 0) {
        s.in.insert(s.in.end(), chunk, chunk + n);
        if (!parseFrames(s)) {
          return;  // session aborted or went fatal
        }
        continue;
      }
      if (n == 0) {
        // Peer closed. A clean client said BYE first; anything still
        // queued or unread marks an unclean disconnect. Either way the
        // session is torn down now and nobody else notices.
        abortSession(s);
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      if (errno == EINTR) {
        continue;
      }
      abortSession(s);
      return;
    }
  }

  /// Consumes every complete frame in the input buffer. Returns false when
  /// the session was closed underneath (fatal reject path keeps the
  /// session alive to flush, so it returns true).
  bool parseFrames(Session& s) {
    for (;;) {
      if (s.closing) {
        return true;
      }
      const std::size_t available = s.in.size() - s.inPos;
      if (available < kHeaderBytes) {
        break;
      }
      const Diagnostics diag("robustd:frame");
      FrameHeader header;
      try {
        header = decodeFrameHeader(
            std::span<const std::uint8_t>(s.in.data() + s.inPos,
                                          kHeaderBytes),
            options.limits, diag);
      } catch (const ParseError& e) {
        sendReject(s, 0, e.diagnostic().category, true,
                   e.diagnostic().format());
        return true;
      }
      if (available < kHeaderBytes + header.payloadBytes) {
        break;  // wait for the rest of the payload
      }
      if (!isClientFrameType(static_cast<std::uint8_t>(header.type))) {
        // The stream is still framed; answer per-request and move on.
        s.inPos += kHeaderBytes + header.payloadBytes;
        sendReject(s, header.requestId, RejectCategory::Format, false,
                   "robustd: frame type 0x" +
                       std::to_string(static_cast<unsigned>(header.type)) +
                       " is not a client request");
        continue;
      }
      const std::span<const std::uint8_t> payload(
          s.in.data() + s.inPos + kHeaderBytes, header.payloadBytes);
      s.inPos += kHeaderBytes + header.payloadBytes;
      handleFrame(s, header, payload);
    }
    // Compact the consumed prefix once it dominates the buffer.
    if (s.inPos > 0 && (s.inPos >= s.in.size() || s.inPos > 1u << 16)) {
      s.in.erase(s.in.begin(),
                 s.in.begin() + static_cast<std::ptrdiff_t>(s.inPos));
      s.inPos = 0;
    }
    return true;
  }

  void flushTo(Session& s) {
    while (!s.out.empty()) {
      const std::vector<std::uint8_t>& front = s.out.front();
      const std::size_t left = front.size() - s.outPos;
      const ssize_t n = ::write(s.fd, front.data() + s.outPos, left);
      if (n > 0) {
        s.outPos += static_cast<std::size_t>(n);
        s.outBytes -= static_cast<std::size_t>(n);
        s.backlogBytes -= std::min(s.backlogBytes,
                                   static_cast<std::size_t>(n));
        if (s.outPos == front.size()) {
          s.out.pop_front();
          s.outPos = 0;
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      }
      if (n < 0 && errno == EINTR) {
        continue;
      }
      abortSession(s);  // EPIPE / ECONNRESET: peer vanished
      return;
    }
    s.wantWrite = false;
    syncInterest(s);
    updatePause(s);
    maybeFinish(s);
  }

  // ------------------------------------------------------------ IO loop

  void ioLoop() {
    std::vector<Poller::Event> events;
    while (!stopping.load(std::memory_order_relaxed)) {
      poller->wait(events, 200);
      for (const Poller::Event& ev : events) {
        if (ev.fd == wakeRead) {
          char sink[256];
          while (::read(wakeRead, sink, sizeof(sink)) > 0) {
          }
          continue;
        }
        if (ev.fd == listenFd) {
          acceptAll();
          continue;
        }
        const auto it = sessions.find(ev.fd);
        if (it == sessions.end()) {
          continue;  // closed earlier this round
        }
        Session& s = *it->second;
        if (ev.error) {
          abortSession(s);
          continue;
        }
        if (ev.writable) {
          flushTo(s);
        }
        // flushTo may have closed the session; re-find before reading.
        const auto again = sessions.find(ev.fd);
        if (again == sessions.end() || !ev.readable) {
          continue;
        }
        readFrom(*again->second);
      }
      drainCompletions();
    }
    shutdownSessions();
  }

  /// Stop-path teardown on the IO thread: let in-flight work finish (its
  /// replies are dropped), then close every session with a report.
  void shutdownSessions() {
    while (poolBusy > 0) {
      std::vector<Poller::Event> events;
      poller->wait(events, 50);
      drainCompletionsDiscarding();
    }
    while (!sessions.empty()) {
      Session& s = *sessions.begin()->second;
      discardPending(s);
      closeSession(s, /*disconnected=*/false);
    }
  }

  void drainCompletionsDiscarding() {
    std::vector<Completion> batch;
    {
      std::lock_guard lock(mutex);
      batch.swap(completions);
    }
    poolBusy -= std::min(poolBusy, batch.size());
  }
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() { stop(); }

void Server::start() {
  ROBUST_REQUIRE(!impl_->started, "robustd: server already started");
  impl_->poller = std::make_unique<Poller>(impl_->options.forcePoll);
  impl_->openListenSocket();
  int pipeFds[2];
  if (::pipe(pipeFds) != 0) {
    ::close(impl_->listenFd);
    impl_->listenFd = -1;
    throw std::runtime_error("robustd: pipe() failed");
  }
  impl_->wakeRead = pipeFds[0];
  impl_->wakeWrite = pipeFds[1];
  setNonBlocking(impl_->wakeRead);
  setNonBlocking(impl_->wakeWrite);
  impl_->poller->add(impl_->listenFd, true, false);
  impl_->poller->add(impl_->wakeRead, true, false);
  impl_->stopping.store(false);
  impl_->started = true;
  impl_->ioThread = std::thread([this] { impl_->ioLoop(); });
}

void Server::stop() {
  if (!impl_->started) {
    return;
  }
  impl_->stopping.store(true);
  impl_->wake();
  if (impl_->ioThread.joinable()) {
    impl_->ioThread.join();
  }
  try {
    impl_->pool.wait();
  } catch (const std::exception&) {
    // Worker exceptions were already answered as rejects; a stray one
    // must not escape shutdown.
  }
  if (impl_->listenFd >= 0) {
    ::close(impl_->listenFd);
    impl_->listenFd = -1;
  }
  if (impl_->wakeRead >= 0) {
    ::close(impl_->wakeRead);
    ::close(impl_->wakeWrite);
    impl_->wakeRead = impl_->wakeWrite = -1;
  }
  if (!impl_->options.unixPath.empty()) {
    ::unlink(impl_->options.unixPath.c_str());
  }
  impl_->started = false;
}

std::uint16_t Server::port() const noexcept { return impl_->boundPort; }

const std::string& Server::unixPath() const noexcept {
  return impl_->options.unixPath;
}

ServerStats Server::stats() const {
  std::lock_guard lock(impl_->mutex);
  return impl_->stats;
}

}  // namespace robust::net
