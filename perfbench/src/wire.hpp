// Loopback TCP client side of the JSONL serving protocol, and the checks
// the benchmark applies to every response it reads.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "data/interactions.hpp"
#include "recsys/ranker.hpp"

namespace perfbench {

// A connected TCP socket to 127.0.0.1:port with TCP_NODELAY set, blocking.
// Throws std::runtime_error when the connection fails.
int connect_loopback(int port);

// One blocking connection to 127.0.0.1:port. One thread may send while
// another reads; neither call is safe from two threads at once.
class Conn {
 public:
  explicit Conn(int port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  // Sends all of `bytes`. Throws std::runtime_error on a socket error.
  void send_all(const std::string& bytes);
  // Next newline-terminated line, without the newline. Throws on EOF, on
  // a socket error, or after 60 s without data.
  std::string read_line();
  // Like read_line, but gives up with nullopt when no complete line has
  // arrived within timeout_ms.
  std::optional<std::string> read_line_for(int timeout_ms);

 private:
  int fd_ = -1;
  std::string buf_;
};

// A recommend response as read off the wire.
struct WireList {
  bool ok = false;
  std::string error;  // set when !ok
  std::int64_t user = -1;
  std::uint64_t feature_epoch = 0;
  std::vector<taamr::recsys::ScoredItem> items;
};

// Parses a recommend response; malformed JSON comes back as !ok with the
// parse error. Scores are read back to float: the server prints them with
// %.9g, which round-trips a float exactly.
WireList parse_list(const std::string& line);

// Empty when `list` answers `user` with `n` items in canonical order
// (score descending, item ascending) and holds none of the user's training
// items; otherwise a description of the first defect.
std::string check_list(const taamr::data::ImplicitDataset& dataset, std::int64_t user,
                       std::int64_t n, const WireList& list);

// The "epoch" of an update_features acknowledgement, or -1 when the line
// is not a successful acknowledgement.
std::int64_t parse_update_ack(const std::string& line);

// The benchmark's request id carried in a request line as "rid":N, or 0.
std::uint64_t peek_rid(const std::string& line);

}  // namespace perfbench
