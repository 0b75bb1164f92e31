#include "algebra/operators.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <optional>
#include <unordered_map>

namespace sparqluo {

namespace internal {

bool RowsCompatible(const TermId* ra, const TermId* rb,
                    const std::vector<std::pair<size_t, size_t>>& cols) {
  for (const auto& [ca, cb] : cols) {
    TermId va = ra[ca];
    TermId vb = rb[cb];
    if (va != kUnboundTerm && vb != kUnboundTerm && va != vb) return false;
  }
  return true;
}

}  // namespace internal

namespace {

/// Hashes the values of `row` at the a-side (`first`) or b-side columns of
/// `cols`; sets `*full` to false if one is unbound. Reads the row in place,
/// so multi-variable keys need no per-row key buffer.
uint64_t HashKey(const TermId* row,
                 const std::vector<std::pair<size_t, size_t>>& cols,
                 bool first, bool* full) {
  uint64_t h = 1469598103934665603ULL;
  *full = true;
  for (const auto& c : cols) {
    TermId x = row[first ? c.first : c.second];
    if (x == kUnboundTerm) *full = false;
    h ^= x;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Shared machinery for Join / LeftOuterJoin / Minus: finds, for each row of
/// `a`, the compatible rows of `b`. Single shared variables — the dominant
/// case — key a scalar hash by the value itself. Several shared variables
/// key it by a hash of the values; a probe re-checks each bucket row, so
/// hash collisions cost a comparison, never a wrong match.
/// An explicit [b_begin, b_end) restricts the indexed b-rows, which is how
/// Join shards one hash build across workers; reported row indices are
/// absolute either way, and the full range is the one-shard build.
class CompatFinder {
 public:
  CompatFinder(const BindingSet& a, const BindingSet& b, size_t b_begin = 0,
               size_t b_end = SIZE_MAX)
      : a_(a), b_(b), b_begin_(b_begin), b_end_(std::min(b_end, b.size())) {
    for (size_t i = 0; i < a.schema().size(); ++i) {
      size_t j = b.ColumnOf(a.schema()[i]);
      if (j != SIZE_MAX) common_.emplace_back(i, j);
    }
    if (common_.empty() || b.width() == 0) return;
    // Hash-partition b's rows on their common-variable values. Rows with an
    // unbound common variable can match several keys, so they go to a
    // separate compatibility-checked list.
    if (common_.size() == 1) {
      size_t cb = common_[0].second;
      scalar_buckets_.reserve(b_end_ - b_begin_);
      for (size_t r = b_begin_; r < b_end_; ++r) {
        TermId key = b.Row(r)[cb];
        if (key != kUnboundTerm) {
          scalar_buckets_[key].push_back(r);
        } else {
          partial_.push_back(r);
        }
      }
      return;
    }
    buckets_.reserve(b_end_ - b_begin_);
    for (size_t r = b_begin_; r < b_end_; ++r) {
      bool full;
      uint64_t h = HashKey(b.Row(r), common_, /*first=*/false, &full);
      if (full) {
        buckets_[h].push_back(r);
      } else {
        partial_.push_back(r);
      }
    }
  }

  bool has_common() const { return !common_.empty(); }
  const std::vector<std::pair<size_t, size_t>>& common() const {
    return common_;
  }

  /// True iff some indexed b-row has an unbound common-variable cell. Those
  /// rows are emitted after the bucket matches, so sharded builds (which
  /// would interleave that order) must be avoided when any exist.
  bool has_partial_rows() const { return !partial_.empty(); }

  /// Calls `fn(rb)` for every b-row compatible with a-row `ra_idx`.
  template <typename Fn>
  void ForEachCompatible(size_t ra_idx, Fn&& fn) const {
    if (common_.empty()) {
      for (size_t r = b_begin_; r < b_end_; ++r) fn(r);
      return;
    }
    const TermId* ra = a_.Row(ra_idx);
    if (common_.size() == 1) {
      TermId key = ra[common_[0].first];
      if (key != kUnboundTerm) {
        auto it = scalar_buckets_.find(key);
        if (it != scalar_buckets_.end())
          for (size_t r : it->second) fn(r);
        for (size_t r : partial_) fn(r);  // unbound b-side: compatible
      } else {
        for (size_t r = b_begin_; r < b_end_; ++r) fn(r);
      }
      return;
    }
    bool full;
    uint64_t h = HashKey(ra, common_, /*first=*/true, &full);
    if (full) {
      // Both keys are fully bound, so compatibility is key equality.
      auto it = buckets_.find(h);
      if (it != buckets_.end())
        for (size_t r : it->second)
          if (internal::RowsCompatible(ra, b_.Row(r), common_)) fn(r);
      for (size_t r : partial_) {
        if (internal::RowsCompatible(ra, b_.Row(r), common_)) fn(r);
      }
    } else {
      // Some common variable unbound on the a side: scan everything.
      for (size_t r = b_begin_; r < b_end_; ++r) {
        if (internal::RowsCompatible(ra, b_.Row(r), common_)) fn(r);
      }
    }
  }

 private:
  const BindingSet& a_;
  const BindingSet& b_;
  size_t b_begin_;
  size_t b_end_;
  std::vector<std::pair<size_t, size_t>> common_;
  std::unordered_map<uint64_t, std::vector<size_t>> buckets_;
  std::unordered_map<TermId, std::vector<size_t>> scalar_buckets_;
  std::vector<size_t> partial_;
};

/// Output schema of a join: a's schema followed by b's extra variables.
std::vector<VarId> MergedSchema(const BindingSet& a, const BindingSet& b) {
  std::vector<VarId> schema = a.schema();
  for (VarId v : b.schema())
    if (a.ColumnOf(v) == SIZE_MAX) schema.push_back(v);
  return schema;
}

/// Builds the merged row µ1 ∪ µ2 into `out`.
void MergeRows(const BindingSet& a, size_t ra, const BindingSet& b, size_t rb,
               const std::vector<std::pair<size_t, size_t>>& common,
               const std::vector<size_t>& b_extra_cols,
               std::vector<TermId>* out) {
  size_t aw = a.width();
  for (size_t c = 0; c < aw; ++c) (*out)[c] = a.At(ra, c);
  // A shared variable unbound on the a side takes b's value.
  for (const auto& [ca, cb] : common) {
    if ((*out)[ca] == kUnboundTerm) (*out)[ca] = b.At(rb, cb);
  }
  for (size_t i = 0; i < b_extra_cols.size(); ++i)
    (*out)[aw + i] = b.At(rb, b_extra_cols[i]);
}

std::vector<size_t> ExtraCols(const BindingSet& a, const BindingSet& b) {
  std::vector<size_t> cols;
  for (size_t j = 0; j < b.schema().size(); ++j)
    if (a.ColumnOf(b.schema()[j]) == SIZE_MAX) cols.push_back(j);
  return cols;
}

}  // namespace

BindingSet Join(const BindingSet& a, const BindingSet& b,
                const CancelToken* cancel, const ParallelSpec& spec,
                uint64_t* morsels) {
  BindingSet out(MergedSchema(a, b));
  if (a.empty() || b.empty()) return out;
  if (out.width() == 0) {
    // Join of zero-width bags: |a| * |b| empty mappings.
    out.AppendEmptyMappings(a.size() * b.size());
    return out;
  }
  std::vector<size_t> extra = ExtraCols(a, b);
  // Degenerate widths: a zero-width side contributes only multiplicity.
  if (a.width() == 0 || b.width() == 0) {
    CancelCheckpoint chk(cancel);
    std::vector<TermId> row(out.width());
    for (size_t ra = 0; ra < a.size(); ++ra)
      for (size_t rb = 0; rb < b.size(); ++rb) {
        chk.Poll();
        if (a.width() == 0) {
          for (size_t i = 0; i < extra.size(); ++i) row[i] = b.At(rb, extra[i]);
        } else {
          for (size_t c = 0; c < a.width(); ++c) row[c] = a.At(ra, c);
        }
        out.AppendRow(row);
      }
    return out;
  }

  // Hash the smaller side, probe with the larger: the build cost dominates,
  // and either orientation yields the same bag. Every spec keeps this
  // orientation, so every spec yields the same row order.
  const bool stream_is_b = a.size() <= b.size();
  const BindingSet& stream = stream_is_b ? b : a;
  const BindingSet& build = stream_is_b ? a : b;
  std::vector<std::pair<size_t, size_t>> common_ab;
  for (size_t i = 0; i < a.schema().size(); ++i) {
    size_t j = b.ColumnOf(a.schema()[i]);
    if (j != SIZE_MAX) common_ab.emplace_back(i, j);
  }
  // Probes streamed rows [begin, end) into `dst` against `finders`, which
  // point at CompatFinders over consecutive build-row slices.
  auto probe = [&](const auto& finders, size_t begin, size_t end,
                   BindingSet* dst) {
    CancelCheckpoint chk(cancel);
    std::vector<TermId> row(dst->width());
    for (size_t si = begin; si < end; ++si) {
      chk.Poll();
      for (const auto& finder : finders) {
        finder->ForEachCompatible(si, [&](size_t bi) {
          chk.Poll();
          size_t ra = stream_is_b ? bi : si;
          size_t rb = stream_is_b ? si : bi;
          MergeRows(a, ra, b, rb, common_ab, extra, &row);
          dst->AppendRow(row);
        });
      }
    }
  };
  // Small inputs are not worth fanning out.
  if (!spec.enabled() || a.size() + b.size() <= spec.morsel_size) {
    // Sequential: one full-range finder and one morsel, emitting straight
    // into `out`.
    CompatFinder finder(stream, build);
    probe(std::array<const CompatFinder*, 1>{&finder}, 0, stream.size(), &out);
    return out;
  }

  // Sharded hash build: the build side splits into contiguous row slices,
  // each indexed by its own CompatFinder. A probe walks the shards in slice
  // order, so matches surface in ascending build-row order — exactly the
  // one-finder bucket order — as long as no build row carries an unbound
  // join-key cell (those are emitted after bucket matches, which sharding
  // would interleave). That case collapses to one shard.
  bool build_has_unbound = false;
  for (size_t r = 0; r < build.size() && !build_has_unbound; ++r)
    for (const auto& [ca, cb] : common_ab) {
      if (build.At(r, stream_is_b ? ca : cb) == kUnboundTerm) {
        build_has_unbound = true;
        break;
      }
    }
  size_t num_shards =
      build_has_unbound
          ? 1
          : std::max<size_t>(1, std::min(spec.EffectiveWorkers(),
                                         spec.MorselCount(build.size())));
  size_t shard_rows = (build.size() + num_shards - 1) / num_shards;
  std::vector<std::optional<CompatFinder>> shards(num_shards);
  spec.pool->ParallelFor(num_shards, spec.EffectiveWorkers(), [&](size_t i) {
    size_t begin = i * shard_rows;
    size_t end = std::min(begin + shard_rows, build.size());
    shards[i].emplace(stream, build, begin, end);
  });

  // Morsel-parallel probe of the streamed side. Each morsel emits into its
  // own BindingSet; concatenating them in morsel order reproduces the
  // one-morsel probe order.
  size_t num_morsels = spec.MorselCount(stream.size());
  size_t morsel_rows = (stream.size() + num_morsels - 1) / num_morsels;
  std::vector<BindingSet> outs(num_morsels, BindingSet(out.schema()));
  spec.pool->ParallelFor(num_morsels, spec.EffectiveWorkers(), [&](size_t m) {
    size_t begin = m * morsel_rows;
    probe(shards, begin, std::min(begin + morsel_rows, stream.size()),
          &outs[m]);
  });
  if (morsels != nullptr)
    *morsels += num_morsels + (num_shards > 1 ? num_shards : 0);

  size_t total = 0;
  for (const BindingSet& o : outs) total += o.size();
  out.Reserve(total);
  for (const BindingSet& o : outs) out.Append(o);
  return out;
}

BindingSet UnionBag(const BindingSet& a, const BindingSet& b) {
  std::vector<VarId> schema = MergedSchema(a, b);
  BindingSet out(std::move(schema));
  if (out.width() == 0) {
    out.AppendEmptyMappings(a.size() + b.size());
    return out;
  }
  out.Reserve(a.size() + b.size());
  std::vector<TermId> row(out.width(), kUnboundTerm);
  std::vector<size_t> a_cols(out.width(), SIZE_MAX), b_cols(out.width(), SIZE_MAX);
  for (size_t c = 0; c < out.width(); ++c) {
    a_cols[c] = a.ColumnOf(out.schema()[c]);
    b_cols[c] = b.ColumnOf(out.schema()[c]);
  }
  for (size_t r = 0; r < a.size(); ++r) {
    for (size_t c = 0; c < out.width(); ++c)
      row[c] = a_cols[c] == SIZE_MAX ? kUnboundTerm : a.At(r, a_cols[c]);
    out.AppendRow(row);
  }
  for (size_t r = 0; r < b.size(); ++r) {
    for (size_t c = 0; c < out.width(); ++c)
      row[c] = b_cols[c] == SIZE_MAX ? kUnboundTerm : b.At(r, b_cols[c]);
    out.AppendRow(row);
  }
  return out;
}

BindingSet Minus(const BindingSet& a, const BindingSet& b) {
  BindingSet out(a.schema());
  if (a.empty()) return out;
  if (b.empty()) return a;
  std::vector<TermId> row(a.width());
  if (a.size() <= b.size()) {
    // Build on a: mark a-rows that have a compatible b-row.
    CompatFinder finder(b, a);
    if (a.width() == 0 || b.width() == 0 || !finder.has_common()) return out;
    std::vector<bool> matched(a.size(), false);
    for (size_t rb = 0; rb < b.size(); ++rb)
      finder.ForEachCompatible(rb, [&](size_t ra) { matched[ra] = true; });
    for (size_t ra = 0; ra < a.size(); ++ra) {
      if (!matched[ra]) {
        row.assign(a.Row(ra), a.Row(ra) + a.width());
        out.AppendRow(row);
      }
    }
    return out;
  }
  CompatFinder finder(a, b);
  if (a.width() == 0 || b.width() == 0 || !finder.has_common()) {
    // Every µ2 is compatible with every µ1 (no shared bound variables can
    // disagree), so the difference is empty when b is non-empty.
    return out;
  }
  for (size_t ra = 0; ra < a.size(); ++ra) {
    bool any = false;
    finder.ForEachCompatible(ra, [&](size_t) { any = true; });
    if (!any) {
      row.assign(a.Row(ra), a.Row(ra) + a.width());
      out.AppendRow(row);
    }
  }
  return out;
}

BindingSet LeftOuterJoin(const BindingSet& a, const BindingSet& b,
                         const CancelToken* cancel) {
  CancelCheckpoint chk(cancel);
  std::vector<VarId> schema = MergedSchema(a, b);
  BindingSet out(std::move(schema));
  if (a.empty()) return out;
  if (out.width() == 0) {
    // Zero-width: each µ1 joins all µ2 if any exist, else survives alone.
    out.AppendEmptyMappings(b.empty() ? a.size() : a.size() * b.size());
    return out;
  }
  std::vector<size_t> extra = ExtraCols(a, b);
  std::vector<TermId> row(out.width());
  auto pad_a_row = [&](size_t ra) {
    for (size_t c = 0; c < out.width(); ++c)
      row[c] = c < a.width() ? a.At(ra, c) : kUnboundTerm;
    out.AppendRow(row);
  };
  if (b.empty()) {
    for (size_t ra = 0; ra < a.size(); ++ra) pad_a_row(ra);
    return out;
  }
  if (b.width() == 0) {
    // b holds empty mappings: every one is compatible; merge is µ1 itself.
    for (size_t ra = 0; ra < a.size(); ++ra)
      for (size_t k = 0; k < b.size(); ++k) {
        chk.Poll();
        pad_a_row(ra);
      }
    return out;
  }
  std::vector<std::pair<size_t, size_t>> common_ab;
  for (size_t i = 0; i < a.schema().size(); ++i) {
    size_t j = b.ColumnOf(a.schema()[i]);
    if (j != SIZE_MAX) common_ab.emplace_back(i, j);
  }
  if (a.size() <= b.size()) {
    // Build on a, probe with b; track which a-rows matched for padding.
    CompatFinder finder(b, a);
    std::vector<bool> matched(a.size(), false);
    for (size_t rb = 0; rb < b.size(); ++rb) {
      chk.Poll();
      finder.ForEachCompatible(rb, [&](size_t ra) {
        chk.Poll();
        matched[ra] = true;
        MergeRows(a, ra, b, rb, common_ab, extra, &row);
        out.AppendRow(row);
      });
    }
    for (size_t ra = 0; ra < a.size(); ++ra)
      if (!matched[ra]) pad_a_row(ra);
    return out;
  }
  CompatFinder finder(a, b);
  for (size_t ra = 0; ra < a.size(); ++ra) {
    chk.Poll();
    size_t matches = 0;
    finder.ForEachCompatible(ra, [&](size_t rb) {
      chk.Poll();
      ++matches;
      MergeRows(a, ra, b, rb, common_ab, extra, &row);
      out.AppendRow(row);
    });
    if (matches == 0) pad_a_row(ra);
  }
  return out;
}

namespace {

/// Three-valued FILTER evaluation outcome.
enum class Ternary { kTrue, kFalse, kError };

Ternary Not(Ternary t) {
  if (t == Ternary::kError) return t;
  return t == Ternary::kTrue ? Ternary::kFalse : Ternary::kTrue;
}

/// Resolves a slot to a term id under mapping `row`; kUnboundTerm on error.
TermId ResolveSlot(const PatternSlot& slot, const BindingSet& bs, size_t row,
                   const Dictionary& dict) {
  if (slot.is_var) return bs.Value(row, slot.var);
  return dict.Lookup(slot.term);
}


Ternary EvalFilter(const FilterExpr& f, const BindingSet& bs, size_t row,
                   const Dictionary& dict) {
  using Op = FilterExpr::Op;
  switch (f.op) {
    case Op::kAnd: {
      Ternary l = EvalFilter(f.children[0], bs, row, dict);
      Ternary r = EvalFilter(f.children[1], bs, row, dict);
      if (l == Ternary::kFalse || r == Ternary::kFalse) return Ternary::kFalse;
      if (l == Ternary::kError || r == Ternary::kError) return Ternary::kError;
      return Ternary::kTrue;
    }
    case Op::kOr: {
      Ternary l = EvalFilter(f.children[0], bs, row, dict);
      Ternary r = EvalFilter(f.children[1], bs, row, dict);
      if (l == Ternary::kTrue || r == Ternary::kTrue) return Ternary::kTrue;
      if (l == Ternary::kError || r == Ternary::kError) return Ternary::kError;
      return Ternary::kFalse;
    }
    case Op::kNot:
      return Not(EvalFilter(f.children[0], bs, row, dict));
    case Op::kBound: {
      if (!f.lhs.is_var) return Ternary::kError;
      return bs.Value(row, f.lhs.var) != kUnboundTerm ? Ternary::kTrue
                                                      : Ternary::kFalse;
    }
    default: {
      TermId lv = ResolveSlot(f.lhs, bs, row, dict);
      TermId rv = ResolveSlot(f.rhs, bs, row, dict);
      // A constant absent from the dictionary can still be compared for
      // (in)equality against a bound variable — it is simply never equal.
      bool l_unbound = f.lhs.is_var && lv == kUnboundTerm;
      bool r_unbound = f.rhs.is_var && rv == kUnboundTerm;
      if (l_unbound || r_unbound) return Ternary::kError;
      if (f.op == Op::kEq || f.op == Op::kNeq) {
        bool eq;
        if (lv != kUnboundTerm && rv != kUnboundTerm) {
          eq = lv == rv;
        } else {
          // One side is a dictionary-missing constant: compare terms.
          Term lt = f.lhs.is_var ? dict.Decode(lv) : f.lhs.term;
          Term rt = f.rhs.is_var ? dict.Decode(rv) : f.rhs.term;
          eq = lt == rt;
        }
        return (eq == (f.op == Op::kEq)) ? Ternary::kTrue : Ternary::kFalse;
      }
      Term lt = f.lhs.is_var || lv != kUnboundTerm ? dict.Decode(lv) : f.lhs.term;
      Term rt = f.rhs.is_var || rv != kUnboundTerm ? dict.Decode(rv) : f.rhs.term;
      int c = CompareTermsForOrdering(lt, rt);
      bool result = false;
      switch (f.op) {
        case Op::kLt: result = c < 0; break;
        case Op::kGt: result = c > 0; break;
        case Op::kLe: result = c <= 0; break;
        case Op::kGe: result = c >= 0; break;
        default: return Ternary::kError;
      }
      return result ? Ternary::kTrue : Ternary::kFalse;
    }
  }
}

}  // namespace

BindingSet ApplyFilter(const BindingSet& a, const FilterExpr& filter,
                       const Dictionary& dict) {
  BindingSet out(a.schema());
  std::vector<TermId> row(a.width());
  for (size_t r = 0; r < a.size(); ++r) {
    if (EvalFilter(filter, a, r, dict) == Ternary::kTrue) {
      if (a.width() == 0) {
        out.AppendEmptyMappings(1);
      } else {
        row.assign(a.Row(r), a.Row(r) + a.width());
        out.AppendRow(row);
      }
    }
  }
  return out;
}

}  // namespace sparqluo
