// serve_read and serve_swap: the shipped serving stack (ShardRouter behind
// the epoll EventLoop, default configuration) hosted in this process and
// driven over loopback TCP by an open-loop generator.
//
// Every request has a scheduled send time drawn from the seed (Poisson
// arrivals for recommends, a fixed rate for updates). Its latency runs from
// that scheduled time to the moment its response is read, so a stall also
// delays, and is charged to, every request due during it. One thread sends
// and reads for every connection, so the generator adds a single runnable
// thread to the host beside the server's own.
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_map>

#include "bench.hpp"
#include "data/amazon_synth.hpp"
#include "obs/json.hpp"
#include "obs/request_context.hpp"
#include "recsys/bpr_mf.hpp"
#include "recsys/ranker.hpp"
#include "recsys/vbpr.hpp"
#include "serve/event_loop.hpp"
#include "serve/protocol.hpp"
#include "serve/shard_router.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "util/rng.hpp"
#include "wire.hpp"

namespace perfbench {

namespace {

using namespace taamr;

// The serving workloads' fixed shape.
constexpr double kCatalogScale = 0.2;     // amazon_serve_spec: 200K users
constexpr std::int64_t kFeatureDim = 32;
constexpr std::int64_t kTrainEpochs = 1;  // serving cost does not depend on it
constexpr std::int64_t kTopN = 10;
constexpr double kZipfAlpha = 1.0;        // user popularity
constexpr double kBprShare = 0.2;         // share of recommends for BPR-MF
constexpr std::size_t kWarmRequests = 8192;
constexpr int kSetups = 3;  // set-ups per run; setup_s is their median
constexpr std::uint64_t kTraceEvery = 8;
// The reference rate of recommends per second, a fixed open-loop rate well
// below capacity: the capacity phase reaches 11-22K/s on a 4-vCPU host,
// depending on what the rest of the host does, so at 3072/s the latencies
// stay those of an unsaturated server.
constexpr double kReferenceRate = 3072.0;
// serve_swap's update_features per second, throughout the run. A swap
// copies the visual model: 15-35 ms on a quiet 4-vCPU host, up to ~90 ms
// in its slow stretches, where 15/s saturated the single writer and stalled
// the reads queued behind it. At 10/s the writer stays below saturation.
constexpr double kUpdateRate = 10.0;
// The capacity phase keeps this many recommends outstanding on each
// connection (a closed loop), enough to keep every shard worker busy and
// far below the shards' admission bound, so nothing is shed. Its
// throughput is read in windows of kRateWindowS, after a first window of
// ramp-up.
constexpr std::size_t kSaturationDepth = 64;
constexpr double kRateWindowS = 0.5;
// Share of --seconds spent at the reference rate; the rest measures
// capacity.
constexpr double kReferenceShare = 0.6;
// A time limit (seconds) no phase reaches.
constexpr double kNoEnd = 1e6;
// Planned::at_s of a request sent as soon as its connection has room.
constexpr double kAsap = -1.0;
// The generator stops sleeping this long before a send is due.
constexpr std::uint64_t kSpinNs = 50'000;

// One set-up: inputs, trained models and the running server. The handler
// follows tools/taamr_serve's handle_line for recommend and
// update_features, request context included.
class Stack {
 public:
  explicit Stack(std::uint64_t seed) {
    // The catalog is the preset's own, like paper_grid's dataset; the seed
    // drives features, training and traffic.
    const data::SynthSpec spec = data::amazon_serve_spec(kCatalogScale);
    {
      const std::uint64_t t0 = now_ns();
      dataset_ = data::generate_synthetic_dataset(spec);
      dataset_s = static_cast<double>(now_ns() - t0) * 1e-9;
    }
    {
      const std::uint64_t t0 = now_ns();
      // Random gaussian item features: serving cost does not depend on
      // feature quality, only on VBPR having real visual rows to rebuild.
      Rng rng(seed ^ 0x5e7e);
      features_ = Tensor({dataset_.num_items, kFeatureDim});
      for (std::int64_t i = 0; i < features_.numel(); ++i) {
        features_.data()[i] = rng.gaussian_f(0.0f, 1.0f);
      }
      recsys::VbprConfig vbpr_cfg;
      vbpr_cfg.epochs = kTrainEpochs;
      auto vbpr = std::make_shared<recsys::Vbpr>(dataset_, features_, vbpr_cfg, rng);
      vbpr->fit(dataset_, rng);
      recsys::BprMfConfig bpr_cfg;
      bpr_cfg.epochs = kTrainEpochs;
      auto bpr = std::make_shared<recsys::BprMf>(dataset_, bpr_cfg, rng);
      bpr->fit(dataset_, rng);
      registry_ = std::make_unique<serve::ModelRegistry>(dataset_);
      registry_->register_model("vbpr", std::move(vbpr), /*visual=*/true);
      registry_->register_model("bpr_mf", std::move(bpr), /*visual=*/false);
      train_s = static_cast<double>(now_ns() - t0) * 1e-9;
    }
    router_ = std::make_unique<serve::ShardRouter>(dataset_, *registry_, features_);
    serve::EventLoopConfig loop_cfg = serve::EventLoopConfig::from_env();
    loop_cfg.port = 0;
    max_inflight = loop_cfg.max_inflight;
    loop_ = std::make_unique<serve::EventLoop>(
        loop_cfg, router_->num_shards(),
        [this](const std::string& line) {
          const std::int64_t user = serve::peek_user(line);
          return user >= 0 ? router_->shard_of(user) : std::size_t{0};
        },
        [this](std::size_t, const std::string& line) { return handle(line); });
    loop_->start();
  }

  ~Stack() {
    if (loop_) {
      loop_->request_shutdown();
      loop_->join();
    }
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  int port() const { return loop_->port(); }
  const data::ImplicitDataset& dataset() const { return dataset_; }
  serve::ShardRouter& router() { return *router_; }
  serve::ModelRegistry& registry() { return *registry_; }
  serve::EventLoop& loop() { return *loop_; }

  double dataset_s = 0.0;
  double train_s = 0.0;
  std::int64_t max_inflight = 0;

 private:
  // Traced runs record spans for every update and every kTraceEvery-th
  // recommend (by request id), which keeps the span log and its cost small.
  std::string handle(const std::string& line) {
    const bool tracing = spans_enabled();
    const std::uint64_t entry_ns = tracing ? now_ns() : 0;
    const std::uint64_t rid = tracing ? peek_rid(line) : 0;
    std::uint32_t handler_id = 0;
    auto span = [&](const char* name, std::uint64_t start_ns) {
      if (handler_id != 0) record_span(name, start_ns, now_ns(), handler_id, rid);
    };
    obs::RequestContext ctx;
    std::string out;
    try {
      serve::Request req = serve::parse_request(line);
      const bool sampled = req.op == serve::Op::kUpdateFeatures || rid % kTraceEvery == 0;
      if (tracing && rid != 0 && sampled) {
        handler_id = next_span_id();
        span("protocol.parse", entry_ns);
      }
      ctx.mark("parse");
      switch (req.op) {
        case serve::Op::kRecommend: {
          std::uint64_t t0 = tracing ? now_ns() : 0;
          const serve::Recommendation rec =
              router_->recommend(req.model, req.user, req.n, &ctx);
          span(rec.cached ? "service.recommend.hit" : "service.recommend.miss", t0);
          t0 = tracing ? now_ns() : 0;
          out = serve::format_recommendation(rec);
          span("protocol.format", t0);
          ctx.mark("serialize");
          if (req.debug) out = serve::format_recommendation(rec, &ctx);
          ctx.publish();
          break;
        }
        case serve::Op::kUpdateFeatures: {
          const std::uint64_t t0 = tracing ? now_ns() : 0;
          const std::uint64_t epoch = router_->update_item_features(req.item, req.features);
          span("update.handler", t0);
          out = serve::format_ok("\"epoch\":" + std::to_string(epoch));
          break;
        }
        default:
          out = serve::format_error("unsupported op");
      }
    } catch (const std::exception& e) {
      out = serve::format_error(e.what());
    }
    if (handler_id != 0) {
      record_span_with_id("serve.handler", entry_ns, now_ns(), handler_id, 0, rid);
    }
    return out;
  }

  data::ImplicitDataset dataset_;
  Tensor features_;
  std::unique_ptr<serve::ModelRegistry> registry_;
  std::unique_ptr<serve::ShardRouter> router_;
  std::unique_ptr<serve::EventLoop> loop_;  // last: stopped before the rest goes
};

// A scheduled request.
struct Planned {
  // Scheduled send, seconds after the phase start; kAsap: no schedule, the
  // request goes out as soon as its connection has room and is timed from
  // that moment.
  double at_s = 0.0;
  std::int64_t user = -1;             // recommend target; -1 for an update
  bool bpr = false;                   // recommend BPR-MF instead of VBPR
  const std::string* body = nullptr;  // update: the request line up to its "rid"
};

// Yields one connection's requests in schedule order; false once done.
using Source = std::function<bool(Planned&)>;

// Checks one response to `p`; returns a defect or "". Sets `epoch` for an
// update acknowledgement.
using Validator =
    std::function<std::string(const Planned& p, const std::string& line, std::int64_t& epoch)>;

std::string request_line(bool bpr, std::int64_t user, std::int64_t n, std::uint64_t rid) {
  return std::string("{\"op\":\"recommend\",\"model\":\"") + (bpr ? "bpr_mf" : "vbpr") +
         "\",\"user\":" + std::to_string(user) + ",\"n\":" + std::to_string(n) +
         ",\"rid\":" + std::to_string(rid) + "}\n";
}

// Samples of one phase.
struct PhaseSamples {
  std::vector<double> rec_ms;     // recommend latency, in schedule order
  std::vector<double> rec_done_s; // recommend completion times, from the phase start
  std::vector<double> update_ms;  // update round trip, in schedule order
  std::vector<double> late_ms;    // send lateness, every request
  std::size_t sent = 0;
  std::size_t unsent = 0;         // scheduled but never sent: the phase aborted
  std::size_t failed = 0;
  std::int64_t last_epoch = -1;   // highest acknowledged feature epoch
  bool aborted = false;           // sends stopped: too far behind, or a connection failed
  std::size_t broken = 0;         // failed connections, one failed operation each
  double generator_cpu_s = 0.0;   // CPU time of the generator thread itself
  std::vector<std::string> defects;  // the first few failures
};

// One nonblocking loopback connection of a phase and its requests.
struct Lane {
  struct Slot {
    Planned p;
    std::uint64_t due_ns = 0;
    std::uint64_t rid = 0;
  };
  Source source;
  Planned next;
  bool has_next = false;
  int fd = -1;
  std::string out;  // bytes not yet accepted by the socket
  std::string in;   // bytes of an incomplete response line
  std::deque<Slot> inflight;
};

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

int connect_nonblocking(int port) {
  const int fd = connect_loopback(port);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

// Runs one phase from the calling thread alone: the generator adds a single
// runnable thread to the host, whatever the rate or the number of
// connections. Each lane sends a request when it is due, once the lane has
// fewer than `cap` outstanding (so unscheduled requests make a closed loop
// of `cap` per lane), and stops sending `send_until_s` after the start.
// Between sends the thread reads and checks answers, sleeping in ppoll()
// until kSpinNs before the next send is due or a byte arrives. The
// phase gives up once a send is `abort_late_ms` behind schedule: requests
// not sent by then are counted as unsent.
PhaseSamples run_lanes(int port, std::vector<Source> sources, std::size_t cap,
                       double send_until_s, double abort_late_ms, std::int64_t top_n,
                       const Validator& validate, std::uint64_t& next_rid) {
  // Wake-ups at the due time, not up to 50 us after it.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::vector<Lane> lanes(sources.size());
  struct Closer {
    std::vector<Lane>& lanes;
    ~Closer() {
      for (Lane& l : lanes) {
        if (l.fd >= 0) ::close(l.fd);
      }
    }
  } closer{lanes};
  PhaseSamples out;
  std::vector<std::pair<std::uint64_t, double>> recs;  // (due, ms) in arrival order
  const double cpu0 = thread_cpu_s();
  const std::uint64_t start_ns = now_ns() + 5'000'000;
  try {
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      lanes[i].source = std::move(sources[i]);
      lanes[i].has_next = lanes[i].source(lanes[i].next);
      lanes[i].fd = connect_nonblocking(port);
    }

    const auto abort_ns = static_cast<std::uint64_t>(abort_late_ms * 1e6);
    const auto until_ns = start_ns + static_cast<std::uint64_t>(send_until_s * 1e9);
    std::uint64_t last_progress_ns = start_ns;
    std::vector<pollfd> fds(lanes.size());
    char chunk[65536];

    for (;;) {
      std::uint64_t now = now_ns();
      // Send everything that is due.
      std::uint64_t next_due = std::numeric_limits<std::uint64_t>::max();
      for (Lane& l : lanes) {
        while (l.has_next) {
          const std::uint64_t due =
              l.next.at_s == kAsap ? std::max(now, start_ns)
                                   : start_ns + static_cast<std::uint64_t>(l.next.at_s * 1e9);
          if (now >= until_ns) {
            l.has_next = false;
            break;
          }
          if (out.aborted) {  // count the rest of a finite schedule
            ++out.unsent;
            l.has_next = l.source(l.next);
            continue;
          }
          if (due > now || l.inflight.size() >= cap) {
            if (due > now) next_due = std::min(next_due, due);
            break;
          }
          if (now > due + abort_ns) {
            out.aborted = true;
            continue;
          }
          const std::uint64_t rid = ++next_rid;
          l.inflight.push_back({l.next, due, rid});
          out.late_ms.push_back(send_lateness_ms(static_cast<double>(due - start_ns) * 1e-9,
                                                 static_cast<double>(now - start_ns) * 1e-9));
          l.out += l.next.body != nullptr
                       ? *l.next.body + ",\"rid\":" + std::to_string(rid) + "}\n"
                       : request_line(l.next.bpr, l.next.user, top_n, rid);
          ++out.sent;
          l.has_next = l.source(l.next);
        }
        while (!l.out.empty()) {
          const ssize_t n = ::send(l.fd, l.out.data(), l.out.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n <= 0) throw std::runtime_error(std::string("send: ") + std::strerror(errno));
          l.out.erase(0, static_cast<std::size_t>(n));
        }
      }

      bool busy = false;
      for (std::size_t i = 0; i < lanes.size(); ++i) {
        busy = busy || lanes[i].has_next || !lanes[i].inflight.empty();
        fds[i] = {lanes[i].fd,
                  static_cast<short>(POLLIN | (lanes[i].out.empty() ? 0 : POLLOUT)), 0};
      }
      if (!busy) break;

      now = now_ns();
      const std::uint64_t wait_ns =
          next_due == std::numeric_limits<std::uint64_t>::max()
              ? 100'000'000
              : (next_due > now ? next_due - now : 0);
      // Sleep until shortly before the next send, then poll without sleeping:
      // a timer wake-up can come late, a spin cannot.
      const std::uint64_t sleep_ns = wait_ns > kSpinNs ? wait_ns - kSpinNs : 0;
      const timespec ts{static_cast<time_t>(sleep_ns / 1'000'000'000),
                        static_cast<long>(sleep_ns % 1'000'000'000)};
      const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (ready < 0 && errno != EINTR) {
        throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
      }
      if (ready <= 0) {
        bool waiting = false;
        for (const Lane& l : lanes) waiting = waiting || !l.inflight.empty();
        if (waiting && now_ns() > last_progress_ns + 60'000'000'000ull) {
          throw std::runtime_error("no response within 60 s");
        }
        continue;
      }

      for (std::size_t i = 0; i < lanes.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
        Lane& l = lanes[i];
        for (;;) {
          const ssize_t n = ::recv(l.fd, chunk, sizeof(chunk), 0);
          if (n < 0 && errno == EINTR) continue;
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (n == 0) throw std::runtime_error("recv: the server closed the connection");
          if (n < 0) throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
          l.in.append(chunk, static_cast<std::size_t>(n));
        }
        const std::uint64_t recv_ns = now_ns();
        std::size_t from = 0;
        for (std::size_t nl = l.in.find('\n'); nl != std::string::npos;
             nl = l.in.find('\n', from)) {
          const std::string line = l.in.substr(from, nl - from);
          from = nl + 1;
          if (l.inflight.empty()) throw std::runtime_error("response to an unsent request");
          const Lane::Slot slot = l.inflight.front();
          l.inflight.pop_front();
          if (slot.p.user < 0 || slot.rid % kTraceEvery == 0) {
            record_span("loadgen.request", slot.due_ns, recv_ns, 0, slot.rid);
          }
          const double ms = static_cast<double>(recv_ns - slot.due_ns) * 1e-6;
          std::int64_t epoch = -1;
          const std::string defect = validate(slot.p, line, epoch);
          if (!defect.empty()) {
            ++out.failed;
            if (out.defects.size() < 10) out.defects.push_back(defect);
          } else if (slot.p.user >= 0) {
            recs.emplace_back(slot.due_ns, ms);
            out.rec_done_s.push_back(static_cast<double>(recv_ns - start_ns) * 1e-9);
          } else if (epoch <= out.last_epoch) {
            ++out.failed;
            if (out.defects.size() < 10) {
              out.defects.push_back("update acknowledged with epoch " + std::to_string(epoch) +
                                    " after epoch " + std::to_string(out.last_epoch));
            }
          } else {
            out.last_epoch = epoch;
            out.update_ms.push_back(ms);
          }
        }
        l.in.erase(0, from);
        last_progress_ns = recv_ns;
      }
    }
  } catch (const std::exception& e) {
    // A failed connection ends the phase: it counts as one failed
    // operation, and so does every request still unanswered.
    out.aborted = true;
    out.broken = 1;
    out.failed += 1;
    for (const Lane& l : lanes) out.failed += l.inflight.size();
    out.defects.insert(out.defects.begin(), std::string("connection failed: ") + e.what());
  }
  std::sort(recs.begin(), recs.end());
  for (const auto& r : recs) out.rec_ms.push_back(r.second);
  out.generator_cpu_s = thread_cpu_s() - cpu0;
  return out;
}

class LoadGen {
 public:
  LoadGen(Stack& stack, Outcome& outcome, std::size_t conns)
      : stack_(stack),
        outcome_(outcome),
        conns_(conns),
        zipf_(static_cast<std::size_t>(stack.dataset().num_users), kZipfAlpha) {}

  // Recommend traffic, one source per connection: Poisson at `rate` for
  // `seconds` or, when rate == 0, unscheduled requests without end (a
  // closed loop of the outstanding cap). Users follow Zipf; BPR-MF gets
  // kBprShare of them.
  std::vector<Source> recommend_sources(double rate, double seconds, std::uint64_t seed) {
    std::vector<Source> sources;
    for (std::size_t c = 0; c < conns_; ++c) {
      struct State {
        PoissonClock clock;
        Rng rng;
      };
      const std::uint64_t stream_seed = seed * 0x9e3779b97f4a7c15ull + c;
      auto state = std::make_shared<State>(
          State{PoissonClock(rate > 0.0 ? rate / static_cast<double>(conns_) : 1.0, stream_seed),
                Rng(stream_seed ^ 0x05e7)});
      sources.push_back([this, state, rate, seconds](Planned& p) {
        p.at_s = kAsap;
        if (rate > 0.0) {
          p.at_s = state->clock.next();
          if (p.at_s >= seconds) return false;
        }
        p.user = static_cast<std::int64_t>(zipf_.sample(state->rng));
        p.bpr = state->rng.uniform() < kBprShare;
        p.body = nullptr;
        return true;
      });
    }
    return sources;
  }

  // The update storm: at a fixed rate, one item after another gets a copy
  // of the most popular item's feature row plus a little noise, which
  // lifts it into many users' lists, as the paper's attack does.
  Source update_source(double rate, double seconds, std::uint64_t seed) {
    const auto& dataset = stack_.dataset();
    std::vector<std::int64_t> popularity(static_cast<std::size_t>(dataset.num_items), 0);
    for (const auto& items : dataset.train) {
      for (const std::int32_t it : items) ++popularity[static_cast<std::size_t>(it)];
    }
    const auto popular = static_cast<std::int64_t>(
        std::max_element(popularity.begin(), popularity.end()) - popularity.begin());
    const std::vector<float> row = stack_.router().feature_store().item_features(popular);
    Rng rng(seed ^ 0x0bd7);
    auto bodies = std::make_shared<std::vector<std::string>>();
    const auto count = static_cast<std::size_t>(std::floor(rate * seconds));
    for (std::size_t i = 0; i < count; ++i) {
      std::int64_t item = popular;
      while (item == popular) {
        item = static_cast<std::int64_t>(
            rng.uniform_u64(static_cast<std::uint64_t>(dataset.num_items)));
      }
      std::string body =
          "{\"op\":\"update_features\",\"item\":" + std::to_string(item) + ",\"features\":[";
      for (std::size_t d = 0; d < row.size(); ++d) {
        if (d > 0) body += ',';
        body += obs::json::number(row[d] + 0.01f * rng.gaussian_f(0.0f, 1.0f));
      }
      bodies->push_back(body + "]");
    }
    return [bodies, rate, next = std::size_t{0}](Planned& p) mutable {
      if (next == bodies->size()) return false;
      p.at_s = (static_cast<double>(next) + 0.5) / rate;
      p.user = -1;
      p.body = &(*bodies)[next++];
      return true;
    };
  }

  // Runs the sources, one connection each, until they end or
  // `send_until_s` has passed; every sent request is one attempted
  // operation of the outcome, and every failed check one failed operation.
  PhaseSamples run(std::vector<Source> sources, std::size_t cap, double abort_late_ms,
                   double send_until_s = kNoEnd) {
    const auto& dataset = stack_.dataset();
    const std::int64_t n = kTopN;
    const Validator validate = [&dataset, n](const Planned& p, const std::string& line,
                                             std::int64_t& epoch) -> std::string {
      if (p.user >= 0) return check_list(dataset, p.user, n, parse_list(line));
      epoch = parse_update_ack(line);
      return epoch >= 0 ? "" : "update rejected: " + line.substr(0, 200);
    };
    PhaseSamples out = run_lanes(stack_.port(), std::move(sources), cap, send_until_s,
                                 abort_late_ms, n, validate, next_rid_);
    outcome_.attempted += out.sent + out.broken;
    outcome_.failed += out.failed;
    for (const std::string& d : out.defects) {
      if (outcome_.defects.size() < 10) outcome_.defects.push_back(d);
    }
    return out;
  }

  // Served lists of a few hot users spread over the shards must equal a
  // recompute through the same scoring path, bit for bit, and carry the
  // latest feature epoch.
  void check_probes(std::int64_t expected_epoch) {
    auto& router = stack_.router();
    const auto& dataset = stack_.dataset();
    std::vector<std::int64_t> probes;
    std::vector<char> seen(router.num_shards(), 0);
    for (std::int64_t u = 0; u < dataset.num_users && probes.size() < 4; ++u) {
      const std::size_t shard = router.shard_of(u);
      if (!seen[shard] || u < 2) {
        seen[shard] = 1;
        probes.push_back(u);
      }
    }
    const serve::ModelRegistry::Snapshot snap = stack_.registry().get("vbpr");
    Conn conn(stack_.port());
    for (const std::int64_t user : probes) {
      std::vector<float> row(static_cast<std::size_t>(dataset.num_items));
      const std::int64_t users[1] = {user};
      snap.model->score_users({users, 1}, row);
      for (const std::int32_t it : dataset.train[static_cast<std::size_t>(user)]) {
        row[static_cast<std::size_t>(it)] = -std::numeric_limits<float>::infinity();
      }
      const auto golden = recsys::top_n_from_row(row, kTopN, /*drop_masked=*/true);
      conn.send_all(request_line(/*bpr=*/false, user, kTopN, ++next_rid_));
      const WireList served = parse_list(conn.read_line());
      std::string defect = check_list(dataset, user, kTopN, served);
      if (defect.empty() && served.items != golden) {
        defect = "served list of probe user " + std::to_string(user) +
                 " differs from the golden recompute";
      }
      if (defect.empty() && (static_cast<std::int64_t>(served.feature_epoch) != expected_epoch ||
                             snap.feature_epoch != served.feature_epoch)) {
        defect = "probe user " + std::to_string(user) + " served at feature epoch " +
                 std::to_string(served.feature_epoch) + ", expected " +
                 std::to_string(expected_epoch);
      }
      outcome_.check(defect);
    }
  }

 private:
  Stack& stack_;
  Outcome& outcome_;
  std::size_t conns_;
  ZipfSampler zipf_;
  std::uint64_t next_rid_ = 0;
};

std::vector<double> durations_us(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  }
  return out;
}

void add_quantile(Outcome& o, const std::string& name, const Quantile& q,
                  const std::string& unit) {
  o.add(name, q.value, unit, q.count, q.q == 0.5 ? "" : "q=" + obs::json::number(q.q));
}

// Per-layer figures from the spans of a traced phase.
void add_span_metrics(Outcome& o, const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, const Span*> requests, handlers;
  for (const Span& s : spans) {
    if (s.request == 0) continue;
    if (std::string_view(s.name) == "loadgen.request") requests[s.request] = &s;
    if (std::string_view(s.name) == "serve.handler") handlers[s.request] = &s;
  }
  std::vector<double> ingress, egress;
  for (const auto& [rid, req] : requests) {
    const auto h = handlers.find(rid);
    if (h == handlers.end()) continue;
    ingress.push_back(static_cast<double>(h->second->start_ns - req->start_ns) * 1e-3);
    egress.push_back(static_cast<double>(req->end_ns - h->second->end_ns) * 1e-3);
  }
  add_quantile(o, "event_loop.ingress_p50_us", median_of(ingress), "us");
  add_quantile(o, "event_loop.ingress_p99_us", tail_of(ingress), "us");
  add_quantile(o, "event_loop.egress_p50_us", median_of(egress), "us");
  add_quantile(o, "event_loop.egress_p99_us", tail_of(egress), "us");
  add_quantile(o, "protocol.parse_p50_us", median_of(durations_us(spans, "protocol.parse")),
               "us");
  add_quantile(o, "protocol.format_p50_us",
               median_of(durations_us(spans, "protocol.format")), "us");
  add_quantile(o, "service.hit_p50_us",
               median_of(durations_us(spans, "service.recommend.hit")), "us");
  const std::vector<double> miss = durations_us(spans, "service.recommend.miss");
  add_quantile(o, "service.miss_p50_us", median_of(miss), "us");
  add_quantile(o, "service.miss_p99_us", tail_of(miss), "us");
  std::vector<double> update_ms = durations_us(spans, "update.handler");
  for (double& v : update_ms) v *= 1e-3;
  add_quantile(o, "update.handler_p50_ms", median_of(update_ms), "ms");
  add_quantile(o, "update.handler_p99_ms", tail_of(update_ms), "ms");
}

double share(double part, double whole) { return whole > 0.0 ? part / whole : 0.0; }

}  // namespace

Outcome run_serve(const RunOptions& run) {
  Outcome outcome;
  const bool swap = run.workload == "serve_swap";
  const double slo_ms = static_cast<double>(serve::ServeConfig{}.slo_ms);
  outcome.lines.push_back("reference rate " + obs::json::number(kReferenceRate) +
                          "/s; capacity phase " + std::to_string(kSaturationDepth) +
                          " outstanding per connection" +
                          (swap ? "; updates " + obs::json::number(kUpdateRate) + "/s" : ""));
  // Recommends go over nproc - 1 connections on both workloads, so their
  // phases compare; serve_swap's update stream adds one more.
  const std::size_t conns = std::max(1u, host_threads() - 1);
  // Open-loop phases keep every shard queue within its admission bound, so
  // the generator itself never makes the server shed.
  const auto open_cap = [&](const Stack& s) {
    return std::max<std::size_t>(1, static_cast<std::size_t>(s.max_inflight) / (conns + 1));
  };

  // Set up several times; setup_s is the median. The first stack serves,
  // and the others are set up after it is gone, so that the measured server
  // runs in a process no earlier stack has churned. Its peak RSS is read at
  // the end of its set-up: serve_swap's later peak depends on how many
  // model copies a swap race leaves alive at once, and shows in
  // update.rss_growth_mb.
  std::vector<double> setup_s, dataset_s, train_s, warm_s;
  auto set_up = [&] {
    const std::uint64_t t0 = now_ns();
    auto stack = std::make_unique<Stack>(run.seed);
    LoadGen warm(*stack, outcome, conns);
    const std::uint64_t w0 = now_ns();
    // A closed-loop burst warms the caches and every code path once.
    auto counted = [](Source src, std::size_t count) -> Source {
      return [src = std::move(src), count](Planned& p) mutable {
        return count-- > 0 && src(p);
      };
    };
    std::vector<Source> sources;
    for (Source& src : warm.recommend_sources(0.0, 0.0, run.seed ^ 0x3a3a)) {
      sources.push_back(counted(std::move(src), kWarmRequests / conns));
    }
    warm.run(std::move(sources), kSaturationDepth, kNoEnd);
    warm_s.push_back(static_cast<double>(now_ns() - w0) * 1e-9);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    dataset_s.push_back(stack->dataset_s);
    train_s.push_back(stack->train_s);
    return stack;
  };
  auto stack = set_up();
  const double setup_rss_mib = peak_rss_mib();
  auto set_up_the_rest = [&] {
    stack.reset();
    for (int k = 1; k < kSetups; ++k) set_up();
  };

  LoadGen gen(*stack, outcome, conns);
  const double ref_s = kReferenceShare * run.seconds;
  const double cap_s = run.seconds - ref_s;
  auto sources_at = [&](double rate, double seconds, std::uint64_t salt) {
    std::vector<Source> sources = gen.recommend_sources(rate, seconds, run.seed ^ salt);
    if (swap) sources.push_back(gen.update_source(kUpdateRate, seconds, run.seed ^ salt));
    return sources;
  };
  auto router_stats = [&] { return stack->router().stats(); };
  auto shard_requests = [&] {
    std::vector<double> r;
    for (std::size_t i = 0; i < stack->router().num_shards(); ++i) {
      r.push_back(static_cast<double>(stack->router().shard_stats(i).requests));
    }
    return r;
  };
  // A phase that gave up left requests unsent; its latencies would come
  // from the requests that got out, dropping the slowest. Every unsent
  // request counts as a failed operation.
  const double abort_ms = 10.0 * slo_ms;
  auto charge_unsent = [&](const PhaseSamples& phase, const char* name) {
    if (phase.unsent == 0) return;
    outcome.attempted += phase.unsent;
    outcome.failed += phase.unsent;
    outcome.defects.push_back(std::string(name) + " phase fell " +
                              obs::json::number(abort_ms) + " ms behind schedule: " +
                              std::to_string(phase.unsent) + " requests unsent");
  };

  // Untraced reference phase: the reference rate (and, on serve_swap, the
  // storm), open loop.
  const auto stats0 = router_stats();
  const auto shards0 = shard_requests();
  const auto loop0 = stack->loop().stats();
  const double cpu0 = process_cpu_s();
  const std::uint64_t wall0 = now_ns();
  const PhaseSamples ref =
      gen.run(sources_at(kReferenceRate, ref_s, 0x1001), open_cap(*stack), abort_ms);
  const double phase_wall = static_cast<double>(now_ns() - wall0) * 1e-9;
  const double ref_cpu_s = process_cpu_s() - cpu0 - ref.generator_cpu_s;
  const double cpu_share = share(ref_cpu_s, phase_wall * host_threads());
  const auto stats1 = router_stats();
  const auto shards1 = shard_requests();
  const auto loop1 = stack->loop().stats();
  charge_unsent(ref, "reference");
  if (swap) gen.check_probes(ref.last_epoch);

  // One window per second of the phase: p50 and tail are the medians of
  // the windows' own, so a host stall confined to one second moves each by
  // one rank instead of deciding it. The windows' own values are printed.
  const auto windows = static_cast<std::size_t>(std::max(1.0, std::round(ref_s)));
  const Quantile rec_p50 = windowed_median(ref.rec_ms, windows);
  const Quantile rec_tail = windowed_tail(ref.rec_ms, windows);
  auto list = [](const char* what, const std::vector<double>& values) {
    std::string text = what;
    for (std::size_t i = 0; i < values.size(); ++i) {
      text += (i ? ", " : " ") + obs::json::number(values[i]);
    }
    return text;
  };
  auto values = [](const std::vector<Quantile>& qs) {
    std::vector<double> v;
    for (const Quantile& q : qs) v.push_back(q.value);
    return v;
  };
  outcome.lines.push_back(list("reference windows, recommend p50 (ms):",
                               values(slice_stats(ref.rec_ms, windows, median_of))));
  outcome.lines.push_back(list("reference windows, recommend tail (ms):",
                               values(slice_stats(ref.rec_ms, windows, tail_of))));
  const Quantile update_p50 = median_of(ref.update_ms);
  const Quantile update_tail = tail_of(ref.update_ms);
  const std::size_t ref_answered = ref.rec_ms.size() + ref.update_ms.size();
  const double cpu_ms_per_op = share(ref_cpu_s * 1e3, static_cast<double>(ref_answered));

  // Capacity phase: the throughput the server sustains with
  // kSaturationDepth recommends outstanding per connection (and, on
  // serve_swap, the storm beside them), the median of its windows.
  std::vector<Source> sat_sources = gen.recommend_sources(0.0, 0.0, run.seed ^ 0x2002);
  if (swap) sat_sources.push_back(gen.update_source(kUpdateRate, cap_s, run.seed ^ 0x2002));
  const double sat_cpu0 = process_cpu_s();
  const PhaseSamples sat = gen.run(std::move(sat_sources), kSaturationDepth, kNoEnd, cap_s);
  const double sat_cpu_s = process_cpu_s() - sat_cpu0 - sat.generator_cpu_s;
  const std::vector<double> rates = window_rates(sat.rec_done_s, kRateWindowS, cap_s, kRateWindowS);
  const Quantile capacity = median_of(rates);
  const Quantile sat_tail = tail_of(sat.rec_ms);
  outcome.lines.push_back(list("capacity windows (1/s):", rates));

  // Every wall-clock figure, with its sample count. The end-to-end metrics
  // are the CPU, memory and set-up figures: on a shared VM these timings
  // move with the host by more than any bound (see perfbench/README.md), so
  // they are reported, and traced runs record them per layer, ungated.
  auto line = [&](const std::string& name, const Quantile& q, const char* unit) {
    outcome.lines.push_back(name + " = " + obs::json::number(q.value) + " " + unit + " (q=" +
                            obs::json::number(q.q) + ", n=" + std::to_string(q.count) + ")");
  };
  line("recommend_p50_ms", rec_p50, "ms");
  line("recommend_p99_ms", rec_tail, "ms");
  if (swap) {
    line("update_p50_ms", update_p50, "ms");
    line("update_p99_ms", update_tail, "ms");
  }
  line("capacity_qps", capacity, "1/s");
  outcome.lines.push_back("capacity phase p99 = " + obs::json::number(sat_tail.value) +
                          " ms (q=" + obs::json::number(sat_tail.q) + ", n=" +
                          std::to_string(sat_tail.count) + "), " +
                          (sat_tail.value <= slo_ms ? "within" : "over") + " the " +
                          obs::json::number(slo_ms) + " ms SLO");
  outcome.lines.push_back(
      "capacity phase server CPU per request = " +
      obs::json::number(share(sat_cpu_s * 1e3,
                              static_cast<double>(sat.rec_ms.size() + sat.update_ms.size()))) +
      " ms");

  if (!run.trace) {
    // The server's CPU per answered request at the reference rate: the
    // process's CPU time, less the generator thread's and the spinners'.
    outcome.add("cpu_ms_per_op", cpu_ms_per_op, "ms", ref_answered,
                "server CPU per answered request, reference phase");
    set_up_the_rest();
    outcome.add("setup_s", median_of(setup_s).value, "s", setup_s.size());
    outcome.add("peak_rss_mb", setup_rss_mib, "MiB", 1, "at the end of set-up");
    return outcome;
  }

  // Traced run: the same reference phase again with spans on, for the
  // per-layer figures; the untraced phase above is its overhead baseline.
  enable_spans();
  const PhaseSamples traced =
      gen.run(sources_at(kReferenceRate, ref_s, 0x1001), open_cap(*stack), abort_ms);
  charge_unsent(traced, "traced");
  std::vector<Span> spans = collect_spans();
  outcome.add("trace_overhead_share",
              share(median_of(traced.rec_ms).value - median_of(ref.rec_ms).value,
                    median_of(ref.rec_ms).value),
              "share", traced.rec_ms.size());
  add_span_metrics(outcome, spans);
  outcome.add("update.rss_growth_mb", peak_rss_mib() - setup_rss_mib, "MiB", 1,
              "peak RSS after both reference phases minus that of set-up");

  const auto hits = static_cast<double>(stats1.cache_hits - stats0.cache_hits);
  const auto misses = static_cast<double>(stats1.cache_misses - stats0.cache_misses);
  outcome.add("cache.hit_share", share(hits, hits + misses), "share",
              static_cast<std::size_t>(hits + misses));
  outcome.add("cache.revalidated_share",
              share(static_cast<double>(stats1.cache_revalidated - stats0.cache_revalidated), hits),
              "share", static_cast<std::size_t>(hits));
  const auto batches = static_cast<double>(stats1.coalesced_batches - stats0.coalesced_batches);
  outcome.add("coalesce.batch_mean", share(misses, batches), "count",
              static_cast<std::size_t>(misses));
  outcome.add("event_loop.shed_share",
              share(static_cast<double>(loop1.shed - loop0.shed),
                    static_cast<double>(loop1.requests - loop0.requests)),
              "share", static_cast<std::size_t>(loop1.requests - loop0.requests));
  double shard_max = 0.0, shard_sum = 0.0;
  for (std::size_t i = 0; i < shards1.size(); ++i) {
    shard_max = std::max(shard_max, shards1[i] - shards0[i]);
    shard_sum += shards1[i] - shards0[i];
  }
  outcome.add("shard.imbalance", share(shard_max * static_cast<double>(shards1.size()), shard_sum),
              "ratio", shards1.size());
  outcome.add("process.cpu_share", cpu_share, "share", 1);
  add_quantile(outcome, "loadgen.late_p99_ms", tail_of(ref.late_ms), "ms");
  add_quantile(outcome, "recommend.ref_p50_ms", rec_p50, "ms");
  add_quantile(outcome, "recommend.ref_p99_ms", rec_tail, "ms");
  add_quantile(outcome, "update.wire_p50_ms", update_p50, "ms");
  add_quantile(outcome, "update.wire_tail_ms", update_tail, "ms");
  outcome.add("capacity.recommends_per_s", capacity.value, "1/s", capacity.count,
              "median of " + obs::json::number(kRateWindowS) + " s windows");
  set_up_the_rest();
  add_quantile(outcome, "setup.dataset_s", median_of(dataset_s), "s");
  add_quantile(outcome, "setup.train_s", median_of(train_s), "s");
  add_quantile(outcome, "setup.warm_s", median_of(warm_s), "s");
  return outcome;
}

}  // namespace perfbench
