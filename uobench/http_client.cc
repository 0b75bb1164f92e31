#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "http/http_parser.h"

namespace uobench {

namespace {

constexpr size_t kBufferBytes = 256 * 1024;
constexpr size_t kMaxLine = 64 * 1024;

std::string UrlEncode(const std::string& s) {
  static const char* kHex = "0123456789ABCDEF";
  std::string out;
  for (unsigned char c : s) {
    if (std::isalnum(c) || c == '-' || c == '_' || c == '.' || c == '~') {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 15]);
    }
  }
  return out;
}

}  // namespace

std::string SparqlGetRequest(const std::string& query) {
  return "GET /sparql?query=" + UrlEncode(query) +
         " HTTP/1.1\r\nHost: uobench\r\n"
         "Accept: application/sparql-results+json\r\n\r\n";
}

HttpClient::HttpClient(uint16_t port) : buf_(kBufferBytes) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{};
  tv.tv_sec = 60;  // a stalled server fails the request instead of hanging
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  fd_ = fd;
}

HttpClient::~HttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool HttpClient::Fill() {
  if (beg_ == end_) beg_ = end_ = 0;
  if (end_ == buf_.size()) {
    if (beg_ == 0) return false;  // a single line longer than the buffer
    std::memmove(buf_.data(), buf_.data() + beg_, end_ - beg_);
    end_ -= beg_;
    beg_ = 0;
  }
  while (true) {
    ssize_t n = ::recv(fd_, buf_.data() + end_, buf_.size() - end_, 0);
    if (n > 0) {
      end_ += static_cast<size_t>(n);
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

bool HttpClient::ReadLine(std::string* line) {
  size_t scanned = beg_;
  while (true) {
    const char* start = buf_.data() + scanned;
    const void* nl = std::memchr(start, '\n', end_ - scanned);
    if (nl != nullptr) {
      size_t pos = static_cast<size_t>(static_cast<const char*>(nl) -
                                       buf_.data());
      size_t len = pos - beg_;
      if (len > 0 && buf_[pos - 1] == '\r') --len;
      line->assign(buf_.data() + beg_, len);
      beg_ = pos + 1;
      return true;
    }
    if (end_ - beg_ > kMaxLine) return false;
    size_t offset = end_ - beg_;
    if (!Fill()) return false;
    scanned = beg_ + offset;
  }
}

bool HttpClient::ReadBody(uint64_t n, ByteHasher* hasher) {
  while (n > 0) {
    if (beg_ == end_ && !Fill()) return false;
    size_t take = static_cast<size_t>(
        std::min<uint64_t>(n, static_cast<uint64_t>(end_ - beg_)));
    hasher->Update(buf_.data() + beg_, take);
    beg_ += take;
    n -= take;
  }
  return true;
}

HttpClient::Response HttpClient::RoundTrip(const std::string& request) {
  Response resp;
  if (fd_ < 0) {
    resp.error = "not connected";
    return resp;
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      resp.error = "send failed";
      return resp;
    }
    sent += static_cast<size_t>(n);
  }
  std::string line;
  if (!ReadLine(&line) || line.size() < 12 || line.compare(0, 5, "HTTP/") != 0) {
    resp.error = "bad status line";
    return resp;
  }
  resp.status = std::atoi(line.c_str() + 9);
  bool chunked = false;
  uint64_t content_length = 0;
  while (true) {
    if (!ReadLine(&line)) {
      resp.error = "truncated headers";
      return resp;
    }
    if (line.empty()) break;
    size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    std::string value = line.substr(colon + 1);
    while (!value.empty() && value.front() == ' ') value.erase(0, 1);
    if (sparqluo::AsciiEqualsIgnoreCase(name, "transfer-encoding"))
      chunked = sparqluo::AsciiEqualsIgnoreCase(value, "chunked");
    else if (sparqluo::AsciiEqualsIgnoreCase(name, "content-length"))
      content_length = std::strtoull(value.c_str(), nullptr, 10);
  }
  ByteHasher hasher;
  if (chunked) {
    while (true) {
      if (!ReadLine(&line)) {
        resp.error = "truncated chunk size";
        return resp;
      }
      uint64_t size = std::strtoull(line.c_str(), nullptr, 16);
      if (size == 0) {
        // Trailer section up to the blank line.
        do {
          if (!ReadLine(&line)) {
            resp.error = "truncated trailer";
            return resp;
          }
        } while (!line.empty());
        break;
      }
      if (!ReadBody(size, &hasher) || !ReadLine(&line)) {
        resp.error = "truncated chunk";
        return resp;
      }
    }
  } else if (!ReadBody(content_length, &hasher)) {
    resp.error = "truncated body";
    return resp;
  }
  resp.body_hash = hasher.Digest();
  resp.body_bytes = hasher.bytes();
  resp.ok = true;
  return resp;
}

}  // namespace uobench
