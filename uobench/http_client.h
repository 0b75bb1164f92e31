// Minimal blocking HTTP/1.1 client for the benchmark's keep-alive load.
//
// The response body is never stored: it is de-chunked and fed straight
// into a ByteHasher, so checking a 35 MB result costs one pass over the
// bytes as they arrive.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace uobench {

class HttpClient {
 public:
  struct Response {
    bool ok = false;        ///< A complete response was read.
    int status = 0;
    uint64_t body_hash = 0; ///< ByteHasher digest of the de-chunked body.
    uint64_t body_bytes = 0;
    std::string error;
  };

  /// Connects to 127.0.0.1:`port`.
  explicit HttpClient(uint16_t port);
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Sends `request` (raw bytes) and reads one whole response.
  Response RoundTrip(const std::string& request);

 private:
  bool Fill();
  bool ReadLine(std::string* line);
  bool ReadBody(uint64_t n, ByteHasher* hasher);

  int fd_ = -1;
  std::vector<char> buf_;
  size_t beg_ = 0;
  size_t end_ = 0;
};

/// GET request for `query` on /sparql asking for SPARQL JSON results.
std::string SparqlGetRequest(const std::string& query);

}  // namespace uobench
