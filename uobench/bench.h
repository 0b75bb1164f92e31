// Shared helpers of the uobench program: clocks, seeded randomness, result
// fingerprints, order statistics and the metric report.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "algebra/binding_set.h"
#include "sparql/ast.h"

namespace uobench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64 finalizer: a bijective 64-bit mixer.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Derives an independent sub-seed (request order, writer batch) from
/// the workload seed.
inline uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Mix64(seed * 0x2545f4914f6cdd1dull + stream);
}

inline uint64_t HashString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return Mix64(h);
}

/// Order-independent fingerprint of a bag of solution mappings. A row
/// hashes the set of its (variable name, term id) cells, so column order
/// does not matter; the bag sums the row hashes, so row order does not
/// matter, while duplicates still count. Term ids are comparable only
/// within one database (one dictionary).
struct BagHash {
  uint64_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const BagHash& o) const {
    return rows == o.rows && sum == o.sum;
  }
  bool operator!=(const BagHash& o) const { return !(*this == o); }
};

inline BagHash HashBag(const sparqluo::BindingSet& rows,
                       const sparqluo::VarTable& vars) {
  BagHash out;
  out.rows = rows.size();
  const size_t width = rows.width();
  if (width == 0) {
    out.sum = out.rows * Mix64(0);
    return out;
  }
  std::vector<uint64_t> col_key(width);
  for (size_t c = 0; c < width; ++c)
    col_key[c] = HashString(vars.Name(rows.schema()[c]));
  for (size_t r = 0; r < rows.size(); ++r) {
    const sparqluo::TermId* row = rows.Row(r);
    uint64_t h = 0;
    for (size_t c = 0; c < width; ++c)
      if (row[c] != sparqluo::kUnboundTerm)
        h += Mix64(col_key[c] ^ (static_cast<uint64_t>(row[c]) << 1));
    out.sum += Mix64(h);
  }
  return out;
}

/// Streaming 64-bit hash of a byte sequence; the result does not depend on
/// how the sequence is split across Update calls.
class ByteHasher {
 public:
  void Update(const char* data, size_t n) {
    bytes_ += n;
    size_t i = 0;
    while (carry_len_ > 0 && carry_len_ < 8 && i < n)
      carry_[carry_len_++] = data[i++];
    if (carry_len_ == 8) {
      Word(carry_);
      carry_len_ = 0;
    }
    for (; i + 8 <= n; i += 8) Word(data + i);
    while (i < n) carry_[carry_len_++] = data[i++];
  }
  uint64_t Digest() const {
    uint64_t h = h_;
    for (size_t i = 0; i < carry_len_; ++i)
      h = (h ^ static_cast<unsigned char>(carry_[i])) * 0x100000001b3ull;
    return Mix64(h ^ bytes_);
  }
  uint64_t bytes() const { return bytes_; }

 private:
  void Word(const char* p) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    uint64_t x = (h_ ^ w) * 0x9e3779b97f4a7c15ull;
    h_ = ((x << 23) | (x >> 41)) + 0x632be59bd9b4e019ull;
  }
  uint64_t h_ = 0x243f6a8885a308d3ull;
  uint64_t bytes_ = 0;
  char carry_[8] = {};
  size_t carry_len_ = 0;
};

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Median that averages the two middle values of an even-sized sample.
inline double MidMedian(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The highest percentile with at least ten samples beyond it. With 100
/// samples or more it is the highest of p99.9, p99 and p90 that qualifies:
/// the rungs keep the chosen percentile from moving between runs whose
/// sample counts differ by a few percent, and each sits inside one query's
/// share of an even 12- or 24-query mix rather than on a boundary between
/// two. Below 100 samples it is the eleventh-largest sample.
struct Tail {
  double percentile = 100.0;
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};

inline Tail TailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  size_t rank = n;  // 1-based; fewer than 11 samples: the maximum
  for (double p : {99.9, 99.0, 90.0}) {
    size_t r = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (r >= 1 && n - r >= 10) {
      rank = r;
      break;
    }
  }
  if (rank == n && n > 10) rank = n - 10;
  t.value = v[rank - 1];
  t.beyond = n - rank;
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
  return t;
}

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports. Metric maps are ordered by name so the
/// output is stable.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< First few failure descriptions.
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Run context: scales, seeds, defaults read at runtime. Values are
  /// pre-rendered JSON.
  std::map<std::string, std::string> context;

  void Fail(const std::string& what) {
    correct = false;
    if (errors.size() < 8) errors.push_back(what);
  }
};

std::string JsonEscape(const std::string& s);
std::string RenderReport(const Report& report);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();

}  // namespace uobench
