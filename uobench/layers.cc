#include "layers.h"

#include <algorithm>
#include <utility>

namespace uobench {

namespace {

/// Length of the union of [start, end) intervals, each clipped to
/// [lo, hi).
int64_t CoveredUs(std::vector<std::pair<int64_t, int64_t>> iv, int64_t lo,
                  int64_t hi) {
  for (auto& [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
  }
  std::sort(iv.begin(), iv.end());
  int64_t covered = 0;
  int64_t cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (!open || s > cur_e) {
      if (open) covered += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) covered += cur_e - cur_s;
  return covered;
}

const std::string* FindAttr(const sparqluo::TraceSpan& span,
                            const std::string& key) {
  for (const auto& [k, v] : span.attrs)
    if (k == key) return &v;
  return nullptr;
}

}  // namespace

void SpanFold::Add(const sparqluo::TraceContext& trace) {
  std::vector<sparqluo::TraceSpan> spans = trace.Snapshot();
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const sparqluo::TraceSpan& s : spans) {
    if (s.parent == sparqluo::TraceContext::kNoSpan || s.dur_us < 0 ||
        s.parent >= spans.size())
      continue;
    children[s.parent].push_back({s.start_us, s.start_us + s.dur_us});
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const sparqluo::TraceSpan& s = spans[i];
    if (s.dur_us < 0) continue;
    int64_t self_us =
        s.dur_us - CoveredUs(children[i], s.start_us, s.start_us + s.dur_us);
    SpanTotals& t = totals_[s.name];
    t.dur_ms += static_cast<double>(s.dur_us) / 1000.0;
    t.self_ms += static_cast<double>(self_us) / 1000.0;
    ++t.count;
    if (s.name == "bgp") {
      if (const std::string* rows = FindAttr(s, "rows"))
        bgp_rows_out_ += std::stoull(*rows);
      if (const std::string* pruned = FindAttr(s, "pruned"))
        bgp_pruned_ += *pruned == "true" ? 1 : 0;
      if (const std::string* engine = FindAttr(s, "engine"))
        bgp_wco_ += *engine == "gStore-WCO" ? 1 : 0;
    }
  }
}

SpanTotals SpanFold::Get(const std::string& name) const {
  auto it = totals_.find(name);
  return it == totals_.end() ? SpanTotals{} : it->second;
}

sparqluo::Result<size_t> CountingFileOps::Write(int fd, const void* data,
                                                size_t size) {
  sparqluo::Result<size_t> r = FileOps::Write(fd, data, size);
  writes_.fetch_add(1, std::memory_order_relaxed);
  if (r.ok()) bytes_.fetch_add(*r, std::memory_order_relaxed);
  return r;
}

sparqluo::Status CountingFileOps::Fsync(int fd) {
  Clock::time_point start = Clock::now();
  sparqluo::Status s = FileOps::Fsync(fd);
  fsync_ns_.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               start)
              .count()),
      std::memory_order_relaxed);
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  return s;
}

CountingFileOps::Counts CountingFileOps::Get() const {
  Counts c;
  c.writes = writes_.load();
  c.bytes = bytes_.load();
  c.fsyncs = fsyncs_.load();
  c.fsync_ms = static_cast<double>(fsync_ns_.load()) / 1e6;
  return c;
}

}  // namespace uobench
