// Per-layer accounting for the traced run: folding the program's own
// query spans by the self-time rule, and a counting FileOps for the
// write-ahead log.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>

#include "bench.h"
#include "obs/trace.h"
#include "util/fault_fs.h"

namespace uobench {

/// Sum of one span name's durations and self times (duration minus the
/// part of its interval its children cover) over many traces.
struct SpanTotals {
  double dur_ms = 0.0;
  double self_ms = 0.0;
  uint64_t count = 0;
};

/// Folds request traces (obs/trace.h) into per-span-name totals, plus the
/// attributes the BGP spans carry (output rows, pruning, engine).
class SpanFold {
 public:
  void Add(const sparqluo::TraceContext& trace);

  /// Totals for `name`; zero totals for a name never seen.
  SpanTotals Get(const std::string& name) const;

  uint64_t bgp_rows_out() const { return bgp_rows_out_; }
  uint64_t bgp_pruned() const { return bgp_pruned_; }
  uint64_t bgp_wco() const { return bgp_wco_; }

 private:
  std::map<std::string, SpanTotals> totals_;
  uint64_t bgp_rows_out_ = 0;
  uint64_t bgp_pruned_ = 0;
  uint64_t bgp_wco_ = 0;
};

/// FileOps passthrough that counts what the write-ahead log does: writes,
/// bytes written, fsyncs and the time spent inside Fsync.
class CountingFileOps : public sparqluo::FileOps {
 public:
  struct Counts {
    uint64_t writes = 0;
    uint64_t bytes = 0;
    uint64_t fsyncs = 0;
    double fsync_ms = 0.0;
  };

  sparqluo::Result<size_t> Write(int fd, const void* data,
                                 size_t size) override;
  sparqluo::Status Fsync(int fd) override;

  Counts Get() const;

 private:
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> fsync_ns_{0};
};

}  // namespace uobench
