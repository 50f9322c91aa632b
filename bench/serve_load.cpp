// Closed-loop load generator for the sharded serving engine (src/serve/):
// builds the serving-scale synthetic dataset (data::amazon_serve_spec —
// TAAMR_SERVE_USERS over a compact TAAMR_SERVE_ITEMS hot catalog), trains
// VBPR + BPR-MF on random gaussian features, then drives Zipf-skewed user
// traffic over real TCP loopback connections through the epoll front door
// (serve/event_loop.hpp) into a ShardRouter, sweeping the shard count.
//
// Part 1 — shard sweep. For each S in TAAMR_SERVE_SHARD_SWEEP (default
// "1,2,4,8"): a fresh ModelRegistry + ShardRouter(S) + EventLoop,
// TAAMR_SERVE_CLIENTS closed-loop TCP clients each sending
// TAAMR_SERVE_REQUESTS newline-framed recommend requests with users drawn
// from a shared Zipf(TAAMR_SERVE_ZIPF_ALPHA) sampler (rank = user id, the
// same rank law amazon_serve_spec uses for item popularity). A controller
// connection performs hot feature swaps at 25/50/75% of the load — pushed
// through the wire as update_features (floats survive the %.9g JSON
// round-trip exactly) — and verifies served lists for probe users spread
// across shards against a golden recompute of the swapped-in model: zero
// mismatches tolerated, mid-load, cross-shard. Shed responses
// ({"error":"overloaded"}) are counted and reported, never silently
// dropped; the leg fails if the drain-then-close shutdown times out.
// Per-leg metrics: serve_qps{shards=S}, serve_latency_p50/p99_ms{shards=S},
// serve_shed{shards=S} — cmake/ServeShardGate.cmake pins the 4-vs-1
// scaling on hosts with enough cores (serve_hw_concurrency records what
// this host had).
//
// Part 2 — telemetry overhead (the serve_obs_gate and prof_overhead_gate
// consume these metrics). The load runs against a single-shard router in
// two kinds of phase with an identical request schedule:
//   phase A — telemetry off: tracing disabled, no request contexts;
//   phase B — telemetry on: per-request RequestContext, tracing re-enabled
//             if configured, audit trail if configured.
// Fifteen A/B pairs run in alternating order, each phase from a cold cache
// and each a fixed replay: clients draw from disjoint user slices and the
// three hot swaps happen between segments of the request stream. A phase is
// timed by its clients' CPU time in their request loops (mean over
// clients), so serve_qps here is requests per client-CPU-second times the
// client count — the wall-clock qps the clients would reach without ever
// waiting. Phase B is the measured run: serve_qps is from the median B
// phase, serve_qps_telemetry_off from the median A phase, and their floored
// percentage difference lands in serve_telemetry_overhead_pct — the
// serve_obs_gate asserts it stays within 10%. Latency quantiles, hit
// rate and counters pool every B phase. The floor (1%) keeps the
// self-compare regression gate from seeing huge *relative* drift between
// two tiny absolute overheads.
//
// Correctness is asserted inline in both parts, not just measured: every
// response is canonically ordered (score desc, id asc), free of the user's
// training items, consistent with its stamped epoch, and in request order
// on its connection (the event loop's reorder map).
//
// Knobs: TAAMR_SERVE_USERS (default 20000), TAAMR_SERVE_ITEMS (2048),
// TAAMR_SERVE_TRAIN_EPOCHS (3), TAAMR_SERVE_ZIPF_ALPHA (1.0),
// TAAMR_SERVE_SHARD_SWEEP ("1,2,4,8"), TAAMR_SERVE_CLIENTS (4),
// TAAMR_SERVE_REQUESTS per client (300), plus the TAAMR_SERVE_* service
// and event-loop knobs read by ServeConfig / EventLoopConfig ::from_env.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "data/amazon_synth.hpp"
#include "obs/json.hpp"
#include "obs/request_context.hpp"
#include "recsys/bpr_mf.hpp"
#include "recsys/ranker.hpp"
#include "recsys/vbpr.hpp"
#include "serve/event_loop.hpp"
#include "serve/protocol.hpp"
#include "serve/shard_router.hpp"

namespace {

using namespace taamr;

void fail(const std::string& what) {
  std::cerr << "serve_load: FAIL: " << what << "\n";
  std::exit(1);
}

std::int64_t env_count(const char* name, std::int64_t fallback) {
  if (const char* s = std::getenv(name)) {
    char* end = nullptr;
    const long long v = std::strtoll(s, &end, 10);
    if (end != s && *end == '\0' && v > 0) return v;
    log_warn() << "ignoring malformed " << name << "='" << s << "'";
  }
  return fallback;
}

double env_real(const char* name, double fallback) {
  if (const char* s = std::getenv(name)) {
    char* end = nullptr;
    const double v = std::strtod(s, &end);
    if (end != s && *end == '\0' && std::isfinite(v) && v >= 0.0) return v;
    log_warn() << "ignoring malformed " << name << "='" << s << "'";
  }
  return fallback;
}

std::vector<std::int64_t> env_shard_sweep() {
  std::string s = "1,2,4,8";
  if (const char* e = std::getenv("TAAMR_SERVE_SHARD_SWEEP")) s = e;
  std::vector<std::int64_t> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const std::string tok = s.substr(pos, comma - pos);
    char* end = nullptr;
    const long long v = std::strtoll(tok.c_str(), &end, 10);
    if (end == tok.c_str() || *end != '\0' || v <= 0) {
      fail("malformed TAAMR_SERVE_SHARD_SWEEP token '" + tok + "'");
    }
    out.push_back(v);
    pos = comma + 1;
  }
  return out;
}

// Golden top-n through the exact arithmetic path the service uses
// (score_users tile + canonical tie-break), so served lists must match
// bit-for-bit.
std::vector<recsys::ScoredItem> golden_topn(const data::ImplicitDataset& dataset,
                                            const recsys::Recommender& model,
                                            std::int64_t user, std::int64_t n) {
  std::vector<float> row(static_cast<std::size_t>(dataset.num_items));
  const std::int64_t users[1] = {user};
  model.score_users({users, 1}, row);
  for (const std::int32_t it : dataset.train[static_cast<std::size_t>(user)]) {
    row[static_cast<std::size_t>(it)] = -std::numeric_limits<float>::infinity();
  }
  return recsys::top_n_from_row(row, n, /*drop_masked=*/true);
}

// Canonical order + no training items: a torn or stale list trips one of
// these.
void check_served_list(const data::ImplicitDataset& dataset, std::int64_t user,
                       const std::vector<recsys::ScoredItem>& items) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (dataset.user_interacted(user, items[i].item)) {
      fail("train item served to user " + std::to_string(user));
    }
    if (i > 0) {
      const auto& prev = items[i - 1];
      const auto& cur = items[i];
      if (cur.score > prev.score ||
          (cur.score == prev.score && cur.item <= prev.item)) {
        fail("non-canonical order for user " + std::to_string(user));
      }
    }
  }
}

// Blocking loopback client speaking the newline-framed protocol: one
// request line out, one response line back (responses on a connection
// arrive in request order — the event loop's ordering contract).
class LineClient {
 public:
  explicit LineClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) fail("client socket() failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{};
    tv.tv_sec = 60;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      fail("client connect() failed");
    }
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  std::string request(const std::string& line) {
    std::string out = line;
    out += '\n';
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n =
          ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n <= 0) fail("client send() failed");
      off += static_cast<std::size_t>(n);
    }
    return read_line();
  }

 private:
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) fail("client recv() failed (timeout or peer close)");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  int fd_ = -1;
  std::string buf_;
};

struct WireRec {
  bool overloaded = false;
  std::int64_t user = -1;
  std::uint64_t feature_epoch = 0;
  std::vector<recsys::ScoredItem> items;
};

WireRec parse_wire_response(const std::string& text) {
  WireRec rec;
  obs::json::Value root;
  try {
    root = obs::json::parse(text);
  } catch (const std::exception& e) {
    fail(std::string("malformed response JSON: ") + e.what() + ": " + text);
  }
  const obs::json::Value* ok = root.find("ok");
  if (ok == nullptr) fail("response missing \"ok\": " + text);
  if (!ok->boolean) {
    const obs::json::Value* err = root.find("error");
    if (err != nullptr && err->str == "overloaded") {
      rec.overloaded = true;
      return rec;
    }
    fail("request failed: " + text);
  }
  rec.user = static_cast<std::int64_t>(root.find("user")->num);
  rec.feature_epoch = static_cast<std::uint64_t>(root.find("feature_epoch")->num);
  for (const obs::json::Value& item : root.find("items")->array) {
    // %.9g round-trips any float exactly through double, so casting the
    // parsed score back to float reproduces the served bits.
    rec.items.push_back(
        {static_cast<std::int32_t>(item.find("item")->num),
         static_cast<float>(item.find("score")->num)});
  }
  return rec;
}

double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

int main() {
  bench::Reporter reporter("serve_load");

  const std::int64_t num_users = env_count("TAAMR_SERVE_USERS", 20000);
  const std::int64_t num_items = env_count("TAAMR_SERVE_ITEMS", 2048);
  const std::int64_t train_epochs = env_count("TAAMR_SERVE_TRAIN_EPOCHS", 3);
  const double zipf_alpha = env_real("TAAMR_SERVE_ZIPF_ALPHA", 1.0);
  const std::int64_t clients = env_count("TAAMR_SERVE_CLIENTS", 4);
  const std::int64_t per_client = env_count("TAAMR_SERVE_REQUESTS", 300);
  const std::vector<std::int64_t> sweep = env_shard_sweep();
  const std::int64_t total = clients * per_client;
  const std::int64_t top_n = 10;

  data::SynthSpec spec = data::amazon_serve_spec();
  spec.num_users = num_users;
  spec.num_items = num_items;
  spec.seed = bench::env_seed();
  spec.validate();

  Stopwatch setup_timer;
  const data::ImplicitDataset dataset = data::generate_synthetic_dataset(spec);

  // Random gaussian features: the bench measures the serving engine, not
  // feature quality — what matters is that VBPR's visual path has real
  // per-item rows to rebuild on every hot swap.
  Rng rng(spec.seed + 7);
  Tensor features({dataset.num_items, 32});
  for (std::int64_t i = 0; i < features.numel(); ++i) {
    features.data()[i] = rng.gaussian_f(0.0f, 1.0f);
  }

  recsys::VbprConfig vbpr_cfg;
  vbpr_cfg.epochs = train_epochs;
  auto vbpr = std::make_shared<recsys::Vbpr>(dataset, features, vbpr_cfg, rng);
  vbpr->fit(dataset, rng);
  recsys::BprMfConfig bpr_cfg;
  bpr_cfg.epochs = train_epochs;
  auto bpr = std::make_shared<recsys::BprMf>(dataset, bpr_cfg, rng);
  bpr->fit(dataset, rng);
  std::cout << "serve_load: setup " << dataset.num_users << " users, "
            << dataset.num_items << " items, " << train_epochs
            << " train epochs in " << Table::fmt(setup_timer.seconds(), 1)
            << "s\n";

  // Traffic skew: the same Zipf rank law the dataset generator uses for
  // item popularity, here over user ids (rank = id, user 0 hottest).
  ZipfSampler zipf(static_cast<std::size_t>(dataset.num_users), zipf_alpha);
  const auto top1pct =
      static_cast<std::int64_t>(std::max<std::int64_t>(1, dataset.num_users / 100));
  reporter.add_config("zipf_alpha", zipf_alpha);
  reporter.add_config("zipf_top1pct_share_expected",
                      zipf.top_share(static_cast<std::size_t>(top1pct)));

  std::atomic<std::uint64_t> hot_requests{0};   // to the top-1% user ranks
  std::atomic<std::uint64_t> sweep_requests{0};

  // ---- Part 1: TCP shard sweep through the epoll front door ----------------

  for (const std::int64_t num_shards : sweep) {
    serve::ModelRegistry registry(dataset);
    registry.register_model("vbpr", vbpr, /*visual=*/true);
    registry.register_model("bpr_mf", bpr, /*visual=*/false);
    serve::ShardRouterConfig router_cfg = serve::ShardRouterConfig::from_env();
    router_cfg.num_shards = num_shards;
    serve::ShardRouter router(dataset, registry, features, router_cfg);

    serve::EventLoopConfig loop_cfg = serve::EventLoopConfig::from_env();
    loop_cfg.port = 0;
    serve::EventLoop loop(
        loop_cfg, router.num_shards(),
        [&router](const std::string& line) {
          const std::int64_t user = serve::peek_user(line);
          return user >= 0 ? router.shard_of(user) : std::size_t{0};
        },
        [&router](std::size_t, const std::string& line) -> std::string {
          try {
            const serve::Request req = serve::parse_request(line);
            switch (req.op) {
              case serve::Op::kRecommend:
                return serve::format_recommendation(
                    router.recommend(req.model, req.user, req.n));
              case serve::Op::kUpdateFeatures:
                return serve::format_ok(
                    "\"epoch\":" +
                    std::to_string(router.update_item_features(req.item, req.features)));
              case serve::Op::kStats:
                return serve::format_stats(router.stats());
              default:
                return serve::format_error("serve_load: unsupported op");
            }
          } catch (const std::exception& e) {
            return serve::format_error(e.what());
          }
        });
    loop.start();

    // Probe users spread across shards, so post-swap verification exercises
    // revalidation on shards other than the one that carried the update.
    std::vector<std::int64_t> probes;
    {
      std::vector<char> seen(router.num_shards(), 0);
      const std::size_t want = std::min<std::size_t>(router.num_shards(), 4);
      for (std::int64_t u = 0; u < dataset.num_users && probes.size() < want; ++u) {
        const std::size_t shard = router.shard_of(u);
        if (!seen[shard]) {
          seen[shard] = 1;
          probes.push_back(u);
        }
      }
    }

    std::atomic<std::int64_t> done{0};
    std::vector<std::vector<double>> latencies(static_cast<std::size_t>(clients));
    Stopwatch leg_timer;

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients) + 1);
    for (std::int64_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        set_current_thread_name("load-client" + std::to_string(c));
        LineClient client(loop.port());
        Rng crng(spec.seed * 1000 + static_cast<std::uint64_t>(c) * 131 +
                 static_cast<std::uint64_t>(num_shards));
        auto& lats = latencies[static_cast<std::size_t>(c)];
        lats.reserve(static_cast<std::size_t>(per_client));
        for (std::int64_t r = 0; r < per_client; ++r) {
          const auto user = static_cast<std::int64_t>(zipf.sample(crng));
          const std::string model = crng.uniform() < 0.2 ? "bpr_mf" : "vbpr";
          const std::string req = "{\"op\":\"recommend\",\"model\":\"" + model +
                                  "\",\"user\":" + std::to_string(user) +
                                  ",\"n\":" + std::to_string(top_n) + "}";
          const auto t0 = std::chrono::steady_clock::now();
          const std::string resp = client.request(req);
          lats.push_back(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
          const WireRec rec = parse_wire_response(resp);
          if (!rec.overloaded) {
            if (rec.user != user) {
              fail("response user mismatch — out-of-order response on a connection");
            }
            check_served_list(dataset, user, rec.items);
          }
          if (user < top1pct) hot_requests.fetch_add(1);
          sweep_requests.fetch_add(1);
          done.fetch_add(1);
        }
      });
    }

    // Controller: three hot feature swaps spread through the load, pushed
    // over the wire and verified — served lists for every probe user must
    // equal a golden recompute of the swapped-in model, mid-load.
    threads.emplace_back([&] {
      set_current_thread_name("load-control");
      LineClient client(loop.port());
      std::int64_t swaps_done = 0;
      for (const double frac : {0.25, 0.5, 0.75}) {
        const auto threshold =
            static_cast<std::int64_t>(frac * static_cast<double>(total));
        while (done.load() < threshold) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }

        const auto vbpr_before = registry.get("vbpr");
        std::vector<std::vector<recsys::ScoredItem>> before;
        before.reserve(probes.size());
        for (const std::int64_t p : probes) {
          before.push_back(golden_topn(dataset, *vbpr_before.model, p, top_n));
        }
        if (before[0].empty()) fail("probe user has an empty list");

        // Shove the probe user's current #1 item far away in feature space.
        const std::int32_t victim = before[0][0].item;
        std::vector<float> feats = router.feature_store().item_features(victim);
        for (float& f : feats) {
          f = -f - 50.0f * static_cast<float>(swaps_done + 1);
        }
        std::string update = "{\"op\":\"update_features\",\"item\":" +
                             std::to_string(victim) + ",\"features\":[";
        for (std::size_t i = 0; i < feats.size(); ++i) {
          if (i > 0) update += ',';
          update += obs::json::number(static_cast<double>(feats[i]));
        }
        update += "]}";
        const obs::json::Value ack = obs::json::parse(client.request(update));
        if (!ack.find("ok")->boolean) fail("update_features rejected over TCP");
        const auto epoch = static_cast<std::uint64_t>(ack.find("epoch")->num);

        const auto vbpr_after = registry.get("vbpr");
        if (vbpr_after.feature_epoch != epoch) {
          fail("registry missed the feature epoch");
        }
        bool any_changed = false;
        for (std::size_t i = 0; i < probes.size(); ++i) {
          const auto golden =
              golden_topn(dataset, *vbpr_after.model, probes[i], top_n);
          WireRec served;
          do {  // a shed probe under overload is retried, not skipped
            served = parse_wire_response(client.request(
                "{\"op\":\"recommend\",\"model\":\"vbpr\",\"user\":" +
                std::to_string(probes[i]) + ",\"n\":" + std::to_string(top_n) +
                "}"));
          } while (served.overloaded);
          if (served.items != golden) {
            fail("post-swap served list diverges from golden recompute (user " +
                 std::to_string(probes[i]) + ", " +
                 std::to_string(router.num_shards()) + " shards)");
          }
          if (served.feature_epoch != epoch) {
            fail("post-swap response stamped with a stale feature epoch");
          }
          if (golden != before[i]) any_changed = true;
        }
        if (!any_changed) fail("hot feature swap changed no probe list");
        ++swaps_done;
      }
    });

    for (std::thread& t : threads) t.join();
    const double leg_seconds = leg_timer.seconds();

    loop.request_shutdown();
    if (loop.join() != 0) fail("event loop drain timed out");
    const serve::EventLoop::Stats loop_stats = loop.stats();
    if (loop_stats.responses != loop_stats.requests) {
      fail("drain lost responses (" + std::to_string(loop_stats.responses) +
           " of " + std::to_string(loop_stats.requests) + ")");
    }

    std::vector<double> lat;
    for (auto& v : latencies) lat.insert(lat.end(), v.begin(), v.end());
    std::sort(lat.begin(), lat.end());
    const double qps =
        leg_seconds > 0.0 ? static_cast<double>(total) / leg_seconds : 0.0;

    const obs::Labels labels = {{"shards", std::to_string(num_shards)}};
    reporter.add_metric("serve_qps", labels, qps);
    reporter.add_metric("serve_latency_p50_ms", labels, percentile(lat, 0.5) * 1e3);
    reporter.add_metric("serve_latency_p99_ms", labels, percentile(lat, 0.99) * 1e3);
    reporter.add_metric("serve_shed", labels,
                        static_cast<double>(loop_stats.shed));
    reporter.add_examples(static_cast<double>(total));

    std::cout << "serve_load: [shards=" << num_shards << "] " << total
              << " requests from " << clients << " TCP clients in "
              << Table::fmt(leg_seconds, 2) << "s — " << Table::fmt(qps, 0)
              << " qps, p50 " << Table::fmt(percentile(lat, 0.5) * 1e3, 3)
              << "ms, p99 " << Table::fmt(percentile(lat, 0.99) * 1e3, 3)
              << "ms, " << loop_stats.shed << " shed, " << loop_stats.accepted
              << " connections, clean drain\n";
  }

  const double achieved_share =
      sweep_requests.load() > 0
          ? static_cast<double>(hot_requests.load()) /
                static_cast<double>(sweep_requests.load())
          : 0.0;
  reporter.add_config("zipf_top1pct_share_achieved", achieved_share);
  reporter.add_metric("serve_zipf_top1pct_share", {}, achieved_share);
  reporter.add_metric("serve_hw_concurrency", {},
                      static_cast<double>(std::thread::hardware_concurrency()));

  // ---- Part 2: two-phase telemetry overhead on a single-shard router -------

  serve::ModelRegistry registry(dataset);
  registry.register_model("vbpr", vbpr, /*visual=*/true);
  registry.register_model("bpr_mf", bpr, /*visual=*/false);
  serve::ShardRouterConfig solo_cfg = serve::ShardRouterConfig::from_env();
  solo_cfg.num_shards = 1;
  serve::ShardRouter service(dataset, registry, features, solo_cfg);

  // A hot pool keeps the cache hit rate up at any dataset size (the sweep
  // above covers the full-skew regime).
  const std::int64_t hot_pool = std::min<std::int64_t>(dataset.num_users, 512);
  const std::vector<std::int64_t> probes = {0, 1, 2};

  std::atomic<bool> failed{false};

  // `count` requests of client `id`. Each client draws from its own slice
  // of the hot pool (users congruent to its id modulo the client count), so
  // no two clients race for one cache entry.
  auto client_requests = [&](std::int64_t id, Rng& crng, std::int64_t count,
                             bool telemetry) {
    const std::int64_t slice = std::max<std::int64_t>(1, hot_pool / clients);
    for (std::int64_t r = 0; r < count && !failed.load(); ++r) {
      const double u01 = crng.uniform();
      const auto slot = std::min(
          slice - 1, static_cast<std::int64_t>(u01 * u01 * static_cast<double>(slice)));
      const std::int64_t user = std::min(id + clients * slot, dataset.num_users - 1);
      const std::string model = crng.uniform() < 0.2 ? "bpr_mf" : "vbpr";
      serve::Recommendation rec;
      try {
        if (telemetry) {
          obs::RequestContext ctx;
          rec = service.recommend(model, user, top_n, &ctx);
          ctx.publish();
        } else {
          rec = service.recommend(model, user, top_n);
        }
      } catch (const std::exception& e) {
        failed.store(true);
        std::cerr << "serve_load: request threw: " << e.what() << "\n";
        break;
      }
      check_served_list(dataset, rec.user, rec.items);
    }
  };

  // One hot feature swap, verified against a golden recompute.
  auto swap_and_verify = [&](std::int64_t swap_index) {
    const auto vbpr_before = registry.get("vbpr");
    std::vector<std::vector<recsys::ScoredItem>> before;
    before.reserve(probes.size());
    for (const std::int64_t p : probes) {
      before.push_back(golden_topn(dataset, *vbpr_before.model, p, top_n));
    }
    if (before[0].empty()) fail("probe user has an empty list");

    const std::int32_t victim = before[0][0].item;
    std::vector<float> feats = service.feature_store().item_features(victim);
    for (float& f : feats) f = -f - 50.0f * static_cast<float>(swap_index + 1);
    const std::uint64_t epoch = service.update_item_features(victim, feats);

    const auto vbpr_after = registry.get("vbpr");
    if (vbpr_after.feature_epoch != epoch) fail("registry missed the feature epoch");
    bool any_changed = false;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const auto golden = golden_topn(dataset, *vbpr_after.model, probes[i], top_n);
      const auto served = service.recommend("vbpr", probes[i], top_n);
      if (served.items != golden) {
        fail("post-swap served list diverges from golden recompute (user " +
             std::to_string(probes[i]) + ")");
      }
      if (served.feature_epoch != epoch) {
        fail("post-swap response stamped with a stale feature epoch");
      }
      if (golden != before[i]) any_changed = true;
    }
    if (!any_changed) fail("hot feature swap changed no probe list");
  };

  // One phase: four segments of concurrent client requests, with a hot swap
  // after each of the first three while the clients wait. Same seeds in
  // every phase and swaps at fixed points of the request stream, so every
  // phase replays the same hits, misses and revalidations, and the only
  // difference between an A and a B phase is the telemetry. Returns the CPU
  // time a client spends in its request loops (the mean over clients). CPU
  // time, not wall time: telemetry costs CPU, while the wall time of a few
  // milliseconds of lock-contending threads on a shared VM is dominated by
  // how fast blocked threads are woken (identical phases differed by up to
  // 2x). Waiting at segment boundaries and the swaps, identical in both
  // kinds of phase, do not count.
  auto run_phase = [&](bool telemetry) {
    constexpr std::int64_t kSegments = 4;
    std::barrier sync(clients + 1);
    std::vector<double> client_seconds(static_cast<std::size_t>(clients), 0.0);
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (std::int64_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        set_current_thread_name("load-client" + std::to_string(c));
        Rng crng(spec.seed * 1000 + static_cast<std::uint64_t>(c));
        for (std::int64_t segment = 0; segment < kSegments; ++segment) {
          const std::int64_t count = (segment + 1) * per_client / kSegments -
                                     segment * per_client / kSegments;
          sync.arrive_and_wait();
          const double cpu0 = thread_cpu_seconds();
          client_requests(c, crng, count, telemetry);
          client_seconds[static_cast<std::size_t>(c)] += thread_cpu_seconds() - cpu0;
          sync.arrive_and_wait();
        }
      });
    }
    for (std::int64_t segment = 0; segment < kSegments; ++segment) {
      sync.arrive_and_wait();  // clients start the segment
      sync.arrive_and_wait();  // every client finished it
      if (segment + 1 < kSegments && !failed.load()) swap_and_verify(segment);
    }
    for (std::thread& t : threads) t.join();
    if (failed.load()) fail("load loop aborted");
    double seconds = 0.0;
    for (const double s : client_seconds) seconds += s;
    return seconds / static_cast<double>(clients);
  };

  // Alternating phases, each from a cold cache: A (telemetry off: tracing
  // suspended, no request contexts) and B (telemetry on: request contexts,
  // tracing restored if configured). Rounds alternate the order (AB, BA,
  // ...) so warm-up and drift favour neither. One phase lasts only a few
  // milliseconds, so qps comes from each side's median phase time, and B's
  // quantiles, hit rate and counters pool all B phases.
  constexpr int kPhasePairs = 15;
  const bool trace_was_enabled = obs::Trace::global().enabled();
  const std::string trace_path = obs::Trace::global().path();
  auto& latency = obs::MetricsRegistry::global().histogram("serve_request_seconds");
  std::vector<double> off_seconds;
  std::vector<double> on_seconds;
  std::vector<std::uint64_t> buckets_b(latency.bounds().size() + 1, 0);
  std::uint64_t count_b = 0;
  std::uint64_t hits_b = 0;
  std::uint64_t misses_b = 0;
  std::uint64_t coalesced_b = 0;
  std::uint64_t revalidated_b = 0;
  for (int round = 0; round < kPhasePairs; ++round) {
    for (const bool telemetry : {round % 2 == 1, round % 2 == 0}) {
      service.clear_cache();
      if (telemetry && trace_was_enabled) {
        obs::Trace::global().enable(trace_path);
      } else {
        obs::Trace::global().disable();
      }
      const serve::RecommendService::Stats before = service.stats();
      std::vector<std::uint64_t> buckets_before(buckets_b.size());
      for (std::size_t i = 0; i < buckets_before.size(); ++i) {
        buckets_before[i] = latency.bucket_count(i);
      }
      const std::uint64_t count_before = latency.count();
      const double seconds = run_phase(telemetry);
      const serve::RecommendService::Stats after = service.stats();
      if (after.feature_swaps != before.feature_swaps + 3) {
        fail("expected 3 hot swaps per phase");
      }
      if (!telemetry) {
        off_seconds.push_back(seconds);
        continue;
      }
      on_seconds.push_back(seconds);
      for (std::size_t i = 0; i < buckets_b.size(); ++i) {
        buckets_b[i] += latency.bucket_count(i) - buckets_before[i];
      }
      count_b += latency.count() - count_before;
      hits_b += after.cache_hits - before.cache_hits;
      misses_b += after.cache_misses - before.cache_misses;
      coalesced_b += after.coalesced_batches - before.coalesced_batches;
      revalidated_b += after.cache_revalidated - before.cache_revalidated;
    }
  }
  if (trace_was_enabled) obs::Trace::global().enable(trace_path);
  const serve::RecommendService::Stats stats = service.stats();

  auto phase_quantile = [&](double q) {
    return obs::bucket_quantile(latency.bounds(), buckets_b, count_b,
                                latency.min(), latency.max(), q);
  };
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return percentile(v, 0.5);
  };
  const double load_seconds = median(on_seconds);
  const double off_median_seconds = median(off_seconds);
  const double qps = load_seconds > 0.0 ? static_cast<double>(total) / load_seconds : 0.0;
  const double qps_off =
      off_median_seconds > 0.0 ? static_cast<double>(total) / off_median_seconds : 0.0;
  // Floored at 1%: below that the signal is run-to-run noise, and the
  // self-compare gate would see enormous relative drift between two tiny
  // absolute values.
  const double overhead_pct =
      qps_off > 0.0 ? std::max(1.0, (qps_off - qps) / qps_off * 100.0) : 1.0;
  const double hit_rate_b =
      hits_b + misses_b > 0
          ? static_cast<double>(hits_b) / static_cast<double>(hits_b + misses_b)
          : 0.0;

  reporter.add_examples(static_cast<double>(2 * kPhasePairs * total));
  reporter.add_metric("serve_qps", {}, qps);
  reporter.add_metric("serve_qps_telemetry_off", {}, qps_off);
  reporter.add_metric("serve_telemetry_overhead_pct", {}, overhead_pct);
  reporter.add_metric("serve_latency_p50_ms", {}, phase_quantile(0.5) * 1e3);
  reporter.add_metric("serve_latency_p90_ms", {}, phase_quantile(0.9) * 1e3);
  reporter.add_metric("serve_latency_p99_ms", {}, phase_quantile(0.99) * 1e3);
  reporter.add_metric("serve_rolling_p99_ms", {}, stats.rolling_p99_s * 1e3);
  reporter.add_metric("serve_cache_hit_rate", {}, hit_rate_b);
  reporter.add_metric("serve_coalesced_batches", {}, static_cast<double>(coalesced_b));
  reporter.add_metric("serve_cache_revalidated", {}, static_cast<double>(revalidated_b));
  reporter.add_metric("serve_audit_records", {},
                      static_cast<double>(stats.audit_records));

  std::cout << "serve_load: " << total << " requests from " << clients
            << " clients per phase, " << kPhasePairs << " phase pairs, median "
            << Table::fmt(load_seconds * 1e3, 2) << " client-CPU ms — " << Table::fmt(qps, 0)
            << " qps (telemetry off: " << Table::fmt(qps_off, 0)
            << " qps, overhead " << Table::fmt(overhead_pct, 1) << "%), p50 "
            << Table::fmt(phase_quantile(0.5) * 1e3, 3) << "ms, p99 "
            << Table::fmt(phase_quantile(0.99) * 1e3, 3) << "ms, rolling p99 "
            << Table::fmt(stats.rolling_p99_s * 1e3, 3) << "ms, hit rate "
            << Table::fmt(hit_rate_b, 3) << ", " << coalesced_b
            << " coalesced batches, " << revalidated_b << " revalidations, "
            << stats.audit_records << " audit records, " << stats.suspect_updates
            << " suspect updates\n";
  return 0;
}
