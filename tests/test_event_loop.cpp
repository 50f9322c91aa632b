// EventLoop behaviour over real loopback sockets: newline framing across
// arbitrary packet splits, per-connection response ordering, shard routing,
// the line-length cap, drain-then-close shutdown, admission control, and
// pipelined feature updates applied in send order through a ShardRouter
// (suite names start with "EventLoop" / "Admission" so the CI
// thread-sanitizer job picks them up).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "data/amazon_synth.hpp"
#include "obs/json.hpp"
#include "recsys/vbpr.hpp"
#include "serve/event_loop.hpp"
#include "serve/protocol.hpp"
#include "serve/shard_router.hpp"
#include "test_helpers.hpp"

namespace taamr {
namespace {

// Minimal blocking client. A 5s receive timeout turns a lost response into
// a test failure instead of a hung suite.
class TestClient {
 public:
  explicit TestClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  bool connected() const { return connected_; }

  bool send_raw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  // True when the server has closed the connection (EOF or reset), false
  // when the read times out with the connection still open.
  bool closed_by_peer() {
    char chunk[4096];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) return true;
      if (n < 0) return errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR;
    }
  }

  // Empty string on timeout or close.
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
      if (n <= 0) return {};
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

serve::EventLoopConfig test_config() {
  serve::EventLoopConfig cfg;
  cfg.port = 0;
  cfg.drain_timeout_ms = 5000;
  return cfg;
}

std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST(EventLoopTest, PipelinedEchoKeepsRequestOrder) {
  serve::EventLoop loop(
      test_config(), 2, [](const std::string&) { return std::size_t{0}; },
      [](std::size_t, const std::string& line) { return "echo:" + line; });
  loop.start();

  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  std::string burst;
  for (int i = 0; i < 32; ++i) burst += "req" + std::to_string(i) + "\n";
  ASSERT_TRUE(client.send_raw(burst));
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(client.read_line(), "echo:req" + std::to_string(i));
  }
  loop.request_shutdown();
  EXPECT_EQ(loop.join(), 0);
  const auto stats = loop.stats();
  EXPECT_EQ(stats.requests, 32u);
  EXPECT_EQ(stats.responses, 32u);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(EventLoopTest, ReassemblesLinesAcrossPacketSplits) {
  serve::EventLoop loop(
      test_config(), 1, [](const std::string&) { return std::size_t{0}; },
      [](std::size_t, const std::string& line) { return "got:" + line; });
  loop.start();

  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  // One request split into three sends, then a send carrying the tail of
  // nothing plus two complete lines plus the head of a third.
  ASSERT_TRUE(client.send_raw("hel"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(client.send_raw("lo wo"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(client.send_raw("rld\nalpha\nbeta\ngam"));
  EXPECT_EQ(client.read_line(), "got:hello world");
  EXPECT_EQ(client.read_line(), "got:alpha");
  EXPECT_EQ(client.read_line(), "got:beta");
  ASSERT_TRUE(client.send_raw("ma\n"));
  EXPECT_EQ(client.read_line(), "got:gamma");
  loop.request_shutdown();
  EXPECT_EQ(loop.join(), 0);
}

TEST(EventLoopTest, RoutesLinesToTheHintedShard) {
  // Route on the line's first digit; the handler reports which shard ran it.
  serve::EventLoop loop(
      test_config(), 4,
      [](const std::string& line) {
        return static_cast<std::size_t>(line[0] - '0') % 4;
      },
      [](std::size_t shard, const std::string& line) {
        return line + ":shard" + std::to_string(shard);
      });
  loop.start();

  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_raw("0\n1\n2\n3\n"));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(client.read_line(),
              std::to_string(i) + ":shard" + std::to_string(i));
  }
  loop.request_shutdown();
  EXPECT_EQ(loop.join(), 0);
}

TEST(EventLoopTest, DrainCompletesInflightBeforeClosing) {
  std::atomic<int> handled{0};
  serve::EventLoop loop(
      test_config(), 1, [](const std::string&) { return std::size_t{0}; },
      [&handled](std::size_t, const std::string& line) {
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        handled.fetch_add(1);
        return "done:" + line;
      });
  loop.start();
  const int port = loop.port();

  TestClient client(port);
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_raw("slow\n"));
  // Give the loop a beat to admit the request, then begin the drain while
  // the handler is still sleeping.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  loop.request_shutdown();
  EXPECT_EQ(client.read_line(), "done:slow");  // flushed before close
  EXPECT_EQ(loop.join(), 0);
  EXPECT_EQ(handled.load(), 1);

  // The listener is gone: new connections are refused.
  TestClient late(port);
  EXPECT_FALSE(late.connected());
}

TEST(EventLoopTest, OversizeLineIsAnsweredThenClosed) {
  const std::size_t fds_before = open_fd_count();
  {
    serve::EventLoop loop(
        test_config(), 1, [](const std::string&) { return std::size_t{0}; },
        [](std::size_t, const std::string& line) { return "echo:" + line; });
    loop.start();

    TestClient big(loop.port());
    ASSERT_TRUE(big.connected());
    ASSERT_TRUE(big.send_raw("first\n"));
    EXPECT_EQ(big.read_line(), "echo:first");
    // 2 MiB without a newline. The server stops reading past its 1 MiB cap
    // and then closes, so this send may end early with a reset: ignore it.
    std::thread sender([&big] { big.send_raw(std::string(std::size_t{2} << 20, 'x')); });

    // Another connection is served while the oversize one is handled.
    TestClient other(loop.port());
    ASSERT_TRUE(other.connected());
    ASSERT_TRUE(other.send_raw("hello\n"));
    EXPECT_EQ(other.read_line(), "echo:hello");

    EXPECT_EQ(big.read_line(), "{\"ok\":false,\"error\":\"line too long\"}");
    EXPECT_TRUE(big.closed_by_peer());
    sender.join();

    loop.request_shutdown();
    EXPECT_EQ(loop.join(), 0);
    const auto stats = loop.stats();
    EXPECT_EQ(stats.requests, 3u);
    EXPECT_EQ(stats.responses, 3u);
  }
  EXPECT_EQ(open_fd_count(), fds_before);
}

TEST(EventLoopTest, PipelinedUpdatesApplyInSendOrder) {
  // Updates carry no user, so they all route to shard 0, whose one worker
  // must apply them in the order they were sent on the connection.
  const data::ImplicitDataset dataset =
      data::generate_synthetic_dataset(data::amazon_men_spec(data::kTestScale));
  Rng rng(5);
  Tensor features({dataset.num_items, 4});
  testing::fill_uniform(features, rng);
  serve::ModelRegistry registry(dataset);
  registry.register_model(
      "vbpr", std::make_shared<recsys::Vbpr>(dataset, features, recsys::VbprConfig{}, rng),
      /*visual=*/true);
  serve::ShardRouterConfig router_cfg;
  router_cfg.num_shards = 2;
  serve::ShardRouter router(dataset, registry, features, router_cfg);
  serve::EventLoop loop(
      test_config(), router.num_shards(),
      [&router](const std::string& line) {
        const std::int64_t user = serve::peek_user(line);
        return user >= 0 ? router.shard_of(user) : std::size_t{0};
      },
      [&router](std::size_t, const std::string& line) {
        try {
          const serve::Request req = serve::parse_request(line);
          const std::uint64_t epoch = router.update_item_features(req.item, req.features);
          return serve::format_ok("\"epoch\":" + std::to_string(epoch));
        } catch (const std::exception& e) {
          return serve::format_error(e.what());
        }
      });
  loop.start();

  constexpr std::int64_t kItem = 3;
  constexpr int kUpdates = 64;
  std::string burst;
  for (int k = 0; k < kUpdates; ++k) {
    // Row k is k + 0.5 in every column: exact in float and in the JSON text.
    const std::string v = std::to_string(k) + ".5";
    burst += "{\"op\":\"update_features\",\"item\":" + std::to_string(kItem) +
             ",\"features\":[" + v + "," + v + "," + v + "," + v + "]}\n";
  }
  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_raw(burst));
  double last_epoch = -1.0;
  for (int k = 0; k < kUpdates; ++k) {
    const std::string line = client.read_line();
    ASSERT_FALSE(line.empty()) << "response " << k << " never arrived";
    const obs::json::Value response = obs::json::parse(line);
    const obs::json::Value* epoch = response.find("epoch");
    ASSERT_NE(epoch, nullptr) << line;
    EXPECT_GT(epoch->num, last_epoch) << "response " << k;
    last_epoch = epoch->num;
  }
  loop.request_shutdown();
  EXPECT_EQ(loop.join(), 0);
  const std::vector<float> expected(4, static_cast<float>(kUpdates - 1) + 0.5f);
  EXPECT_EQ(router.feature_store().item_features(kItem), expected);
}

TEST(EventLoopTest, PeekUserExtractsRoutingHint) {
  EXPECT_EQ(serve::peek_user("{\"op\":\"recommend\",\"user\":42,\"n\":5}"), 42);
  EXPECT_EQ(serve::peek_user("{\"user\" : 7}"), 7);
  EXPECT_EQ(serve::peek_user("{\"op\":\"stats\"}"), -1);
  EXPECT_EQ(serve::peek_user("{\"user\":\"nope\"}"), -1);
  EXPECT_EQ(serve::peek_user(""), -1);
}

TEST(AdmissionTest, OverloadShedsInsteadOfHanging) {
  serve::EventLoopConfig cfg = test_config();
  cfg.max_inflight = 2;
  serve::EventLoop loop(
      cfg, 1, [](const std::string&) { return std::size_t{0}; },
      [](std::size_t, const std::string& line) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        return "ok:" + line;
      });
  loop.start();

  TestClient client(loop.port());
  ASSERT_TRUE(client.connected());
  constexpr int kBurst = 8;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) burst += "r" + std::to_string(i) + "\n";
  ASSERT_TRUE(client.send_raw(burst));

  // Exactly one response line per request line, in request order, with the
  // overflow shed as overload errors rather than queued or dropped.
  int ok = 0;
  int shed = 0;
  int last_ok = -1;
  for (int i = 0; i < kBurst; ++i) {
    const std::string line = client.read_line();
    ASSERT_FALSE(line.empty()) << "response " << i << " never arrived";
    if (line.find("overloaded") != std::string::npos) {
      ++shed;
    } else {
      ASSERT_EQ(line.rfind("ok:r", 0), 0u) << line;
      const int idx = std::stoi(line.substr(4));
      EXPECT_GT(idx, last_ok) << "non-shed responses out of order";
      last_ok = idx;
      ++ok;
    }
  }
  EXPECT_GT(ok, 0);
  EXPECT_GT(shed, 0) << "burst never overflowed the 2-deep queue";
  loop.request_shutdown();
  EXPECT_EQ(loop.join(), 0);
  const auto stats = loop.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(stats.responses, static_cast<std::uint64_t>(kBurst));
}

}  // namespace
}  // namespace taamr
