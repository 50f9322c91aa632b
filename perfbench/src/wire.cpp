#include "wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/json.hpp"

namespace perfbench {

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect to port " + std::to_string(port) + ": " + why);
  }
  return fd;
}

Conn::Conn(int port) : fd_(connect_loopback(port)) {}

Conn::~Conn() {
  if (fd_ >= 0) ::close(fd_);
}

void Conn::send_all(const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    off += static_cast<std::size_t>(n);
  }
}

std::string Conn::read_line() {
  for (int waited_ms = 0; waited_ms < 60000; waited_ms += 100) {
    if (auto line = read_line_for(100)) return std::move(*line);
  }
  throw std::runtime_error("recv: no response within 60 s");
}

std::optional<std::string> Conn::read_line_for(int timeout_ms) {
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return line;
    }
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) throw std::runtime_error(std::string("poll: ") + std::strerror(errno));
    if (ready == 0) return std::nullopt;
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) throw std::runtime_error("recv: peer closed the connection");
    if (n < 0) throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

WireList parse_list(const std::string& line) {
  using taamr::obs::json::Value;
  WireList list;
  Value root;
  try {
    root = taamr::obs::json::parse(line);
  } catch (const std::exception& e) {
    list.error = std::string("malformed response: ") + e.what();
    return list;
  }
  const Value* ok = root.find("ok");
  if (ok == nullptr || ok->type != Value::Type::kBool) {
    list.error = "response without \"ok\"";
    return list;
  }
  if (!ok->boolean) {
    const Value* err = root.find("error");
    list.error = err != nullptr ? err->str : "error response";
    return list;
  }
  const Value* user = root.find("user");
  const Value* epoch = root.find("feature_epoch");
  const Value* items = root.find("items");
  if (user == nullptr || epoch == nullptr || items == nullptr || !items->is_array()) {
    list.error = "recommend response without user, feature_epoch or items";
    return list;
  }
  list.user = static_cast<std::int64_t>(user->num);
  list.feature_epoch = static_cast<std::uint64_t>(epoch->num);
  for (const Value& item : items->array) {
    const Value* id = item.find("item");
    const Value* score = item.find("score");
    if (id == nullptr || score == nullptr) {
      list.error = "list entry without item or score";
      return list;
    }
    list.items.push_back(
        {static_cast<std::int32_t>(id->num), static_cast<float>(score->num)});
  }
  list.ok = true;
  return list;
}

std::string check_list(const taamr::data::ImplicitDataset& dataset, std::int64_t user,
                       std::int64_t n, const WireList& list) {
  if (!list.ok) return "error response: " + list.error;
  if (list.user != user) {
    return "answer for user " + std::to_string(list.user) + " to a request for user " +
           std::to_string(user);
  }
  if (static_cast<std::int64_t>(list.items.size()) != n) {
    return "user " + std::to_string(user) + " got " + std::to_string(list.items.size()) +
           " items, asked for " + std::to_string(n);
  }
  for (std::size_t i = 0; i < list.items.size(); ++i) {
    const auto& cur = list.items[i];
    if (cur.item < 0 || cur.item >= dataset.num_items) {
      return "item id " + std::to_string(cur.item) + " out of range";
    }
    if (dataset.user_interacted(user, cur.item)) {
      return "training item " + std::to_string(cur.item) + " served to user " +
             std::to_string(user);
    }
    if (i > 0) {
      const auto& prev = list.items[i - 1];
      if (cur.score > prev.score || (cur.score == prev.score && cur.item <= prev.item)) {
        return "non-canonical order in the list of user " + std::to_string(user);
      }
    }
  }
  return "";
}

std::int64_t parse_update_ack(const std::string& line) {
  using taamr::obs::json::Value;
  try {
    const Value root = taamr::obs::json::parse(line);
    const Value* ok = root.find("ok");
    const Value* epoch = root.find("epoch");
    if (ok == nullptr || !ok->boolean || epoch == nullptr || !epoch->is_number()) return -1;
    return static_cast<std::int64_t>(epoch->num);
  } catch (const std::exception&) {
    return -1;
  }
}

std::uint64_t peek_rid(const std::string& line) {
  const std::size_t at = line.find("\"rid\":");
  if (at == std::string::npos) return 0;
  std::uint64_t v = 0;
  for (std::size_t i = at + 6; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    v = v * 10 + static_cast<std::uint64_t>(line[i] - '0');
  }
  return v;
}

}  // namespace perfbench
