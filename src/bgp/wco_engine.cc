// gStore-style WCO engine, structured for morsel-driven parallelism.
//
// Evaluation is split into:
//   1. BuildPlan   — resolve constants, partition patterns, and fix the
//                    vertex extension order. The order is a pure function
//                    of the BGP, the store's counts and the candidate sets
//                    (§6), never of partial binding contents, so every
//                    morsel follows it. A candidate-constrained variable
//                    competes for the first position on min(index count,
//                    |candidates|).
//   2. ExtendStep  — one vertex extension over a set of partial bindings.
//                    A constrained variable's candidates drive the step:
//                    a list far shorter than an edge's range is probed
//                    against the index instead of scanning the range;
//                    longer ones filter the scanned adjacency values. A
//                    self-loop ?v p ?v costs one existence probe per value
//                    the step's other edges produce.
//   3. CompleteRows— the remaining extensions + core verification +
//                    residual expansion for a subset of partial bindings.
//                    Row-independent, hence safe to run per morsel.
// The final sort+unique (set semantics of BGP matching) runs globally over
// the concatenated morsel outputs, which is why every ParallelSpec yields
// the same sorted, deduplicated row set over the same schema; a sequential
// evaluation is the one-morsel case.
#include "bgp/wco_engine.h"

#include <algorithm>

#include "obs/trace.h"

namespace sparqluo {

namespace {

/// Internal view of one resolved core pattern (constant predicate, at least
/// one subject/object variable).
struct CoreEdge {
  ResolvedPattern r;
};

/// A core edge incident to the variable one extension step binds, resolved
/// against the columns bound before that step.
struct StepEdge {
  TermId p = kInvalidTermId;
  bool v_is_subj = true;   ///< The step's variable is the subject.
  bool self_loop = false;  ///< ?v p ?v: both endpoints are the variable.
  /// The other endpoint of an adjacent edge: a constant, or (other_col !=
  /// SIZE_MAX) the column of a variable bound by an earlier step.
  TermId other_const = kInvalidTermId;
  size_t other_col = SIZE_MAX;
  /// Plan-time index count of the projection (?, p, ?); open edges and
  /// self-loops only.
  size_t range = 0;

  TermId Other(const std::vector<TermId>& row) const {
    return other_col == SIZE_MAX ? other_const : row[other_col];
  }

  /// The range this edge's adjacency list scans for `row`: (?, p, other)
  /// or (other, p, ?), or the projection (?, p, ?) for self-loops and open
  /// edges, which have no other endpoint.
  TriplePatternIds Pattern(const std::vector<TermId>& row) const {
    TriplePatternIds q;
    q.p = p;
    if (other_col == SIZE_MAX && other_const == kInvalidTermId) return q;
    (v_is_subj ? q.o : q.s) = Other(row);
    return q;
  }

  /// The fully bound triple that holds iff `val` is adjacent over this
  /// (adjacent) edge for `row`.
  Triple With(TermId val, const std::vector<TermId>& row) const {
    return v_is_subj ? Triple(val, p, Other(row)) : Triple(Other(row), p, val);
  }

  /// The entries of an open edge's projection that `val` reaches: its
  /// incident triples, or for a self-loop whether (val, p, val) holds.
  size_t Reach(const TripleStore& store, TermId val,
               TripleStore::ProbeHint* hint) const {
    if (self_loop) return store.Contains(Triple(val, p, val), hint) ? 1 : 0;
    TriplePatternIds q;
    q.p = p;
    (v_is_subj ? q.s : q.o) = val;
    return store.Count(q, hint);
  }
};

/// One existence probe (a directory gallop plus a level-2 binary search)
/// costs about as much as scanning and filtering this many range entries,
/// so a candidate list replaces a range scan only when it is this many
/// times shorter.
constexpr size_t kProbeCost = 8;

/// The row-independent shape of one extension step.
struct StepPlan {
  /// Edges yielding an adjacency list per row: a constant or earlier-bound
  /// other endpoint. Their lists are intersected.
  std::vector<StepEdge> adjacent;
  /// Edges whose other endpoint binds later, in core order. Only a step
  /// with no adjacent edge uses them, to seed itself (see SeedValues). A
  /// step bound only through self-loops seeds from the first one, which
  /// then sits here.
  std::vector<StepEdge> open;
  /// The remaining self-loops ?v p ?v: one existence probe per produced
  /// value each (KeepSelfLoops), never a scan per row.
  std::vector<StepEdge> self_loops;
  /// The variable's candidate set, when it has one.
  const CandidateMap::Set* cand_set = nullptr;
  /// The candidate set sorted ascending, built only when probing it can
  /// beat scanning some edge's (expected) range. Otherwise the candidates
  /// filter the scanned values by lookup.
  bool probe_cands = false;
  std::vector<TermId> sorted_cands;
};

/// Appends the values `range` yields for the step variable to `out`
/// (sorted ascending, distinct).
void ScanValues(const TripleStore::MatchedRange& range, const StepEdge& e,
                std::vector<TermId>* out) {
  TermId last = kInvalidTermId;
  TripleStore::ScanMatched(range, [&](const Triple& t) {
    if (e.self_loop && t.s != t.o) return true;
    TermId val = e.v_is_subj ? t.s : t.o;
    // POS/SPO range scans yield the free position in ascending order, so
    // dedup needs only the previous value.
    if (val != last) {
      out->push_back(val);
      last = val;
    }
    return true;
  });
  // Scans through OSP (v subject, other=object bound) yield s sorted; scans
  // through SPO with s bound yield o sorted; projection scans over POS(p)
  // yield (o, s) pairs, so the subject projection may be unsorted.
  if (!std::is_sorted(out->begin(), out->end())) {
    std::sort(out->begin(), out->end());
    out->erase(std::unique(out->begin(), out->end()), out->end());
  }
}

/// Appends the values of `list` that `cands` admits to `out`, counting the
/// others as pruned.
void KeepCandidates(const std::vector<TermId>& list,
                    const CandidateMap::Set& cands, std::vector<TermId>* out,
                    BgpEvalCounters* counters) {
  for (TermId val : list)
    if (cands.count(val) != 0) out->push_back(val);
  if (counters) counters->candidates_pruned += list.size() - out->size();
}

using Rows = std::vector<std::vector<TermId>>;

/// The precomputed, row-independent shape of one BGP evaluation.
struct WcoPlan {
  std::vector<CoreEdge> core;
  std::vector<ResolvedPattern> residual;
  /// Core extension order (covers every core variable).
  std::vector<VarId> var_order;
  /// One entry per var_order position.
  std::vector<StepPlan> steps;
  /// Variables each residual pattern newly binds, in pattern order.
  std::vector<std::vector<VarId>> residual_new;
  /// var_order followed by all residual_new entries: the column layout of
  /// fully extended rows.
  std::vector<VarId> final_vars;
  /// Set when a constant is missing or a ground triple fails: zero matches.
  bool definitely_empty = false;
};

size_t IndexOf(const std::vector<VarId>& vars, VarId v) {
  for (size_t i = 0; i < vars.size(); ++i)
    if (vars[i] == v) return i;
  return SIZE_MAX;
}

/// Resolves and partitions the BGP and fixes the extension order by
/// replaying the greedy next-variable choice over the simulated bound set.
/// The plan is a pure function of the BGP, the store's counts and the
/// candidate sets, so every morsel of a parallel evaluation follows it.
WcoPlan BuildPlan(const Bgp& bgp, const TripleStore& store,
                  const Dictionary& dict, const Statistics& stats,
                  const CandidateMap* cands) {
  WcoPlan plan;
  for (const TriplePattern& t : bgp.triples) {
    ResolvedPattern r = Resolve(t, dict);
    if (r.missing_const) {
      plan.definitely_empty = true;
      return plan;
    }
    bool has_so_var = r.sv != kInvalidVarId || r.ov != kInvalidVarId;
    if (!has_so_var && r.pv == kInvalidVarId) {
      if (!store.Contains(Triple(r.s, r.p, r.o))) {
        plan.definitely_empty = true;
        return plan;
      }
      continue;  // ground triple: multiplicative identity
    }
    if (r.pv == kInvalidVarId && has_so_var) {
      plan.core.push_back(CoreEdge{r});
    } else {
      plan.residual.push_back(r);
    }
  }

  // The set of variables handled by the core phase.
  std::vector<VarId> core_vars;
  for (const CoreEdge& e : plan.core) {
    for (VarId v : {e.r.sv, e.r.ov})
      if (v != kInvalidVarId && IndexOf(core_vars, v) == SIZE_MAX)
        core_vars.push_back(v);
  }

  auto cand_set = [&](VarId v) -> const CandidateMap::Set* {
    return cands != nullptr ? cands->Get(v) : nullptr;
  };

  // Estimated seed size of a variable: min over incident edges of the edge's
  // match count with constants bound (cheap index counts), and of the size
  // of its candidate list.
  auto seed_count = [&](VarId v) -> double {
    double best = 1e300;
    for (const CoreEdge& e : plan.core) {
      if (e.r.sv != v && e.r.ov != v) continue;
      TriplePatternIds q;
      q.p = e.r.p;
      if (e.r.sv == kInvalidVarId) q.s = e.r.s;
      if (e.r.ov == kInvalidVarId) q.o = e.r.o;
      best = std::min(best, static_cast<double>(store.Count(q)));
    }
    if (const CandidateMap::Set* cs = cand_set(v))
      best = std::min(best, static_cast<double>(cs->size()));
    return best;
  };

  while (plan.var_order.size() < core_vars.size()) {
    // Pick the next variable: prefer ones adjacent to already-bound vars,
    // break ties by seed selectivity.
    VarId next = kInvalidVarId;
    bool next_adjacent = false;
    double next_score = 1e300;
    for (VarId v : core_vars) {
      if (IndexOf(plan.var_order, v) != SIZE_MAX) continue;
      // v is "adjacent" if some incident edge has a constant or already
      // bound other endpoint — its extension can use an indexed adjacency
      // list instead of a projection seed. For the first position a
      // candidate list serves as well as such a list.
      bool adjacent = plan.var_order.empty() && cand_set(v) != nullptr;
      for (const CoreEdge& e : plan.core) {
        if (adjacent) break;
        if (e.r.sv != v && e.r.ov != v) continue;
        VarId other = e.r.sv == v ? e.r.ov : e.r.sv;
        if (other == kInvalidVarId ||
            IndexOf(plan.var_order, other) != SIZE_MAX)
          adjacent = true;
      }
      double score = seed_count(v);
      if (next == kInvalidVarId || (adjacent && !next_adjacent) ||
          (adjacent == next_adjacent && score < next_score)) {
        next = v;
        next_adjacent = adjacent;
        next_score = score;
      }
    }
    plan.var_order.push_back(next);
  }

  // Resolve each step's incident edges against the columns bound before it.
  for (size_t k = 0; k < plan.var_order.size(); ++k) {
    const VarId var = plan.var_order[k];
    StepPlan st;
    // The longest range a step edge is expected to yield per row: exact
    // for constant and projection ranges, the predicate's average fan for
    // a bound neighbour. Self-loops are probed, not scanned, unless one
    // seeds the step.
    double max_range = 0.0;
    for (const CoreEdge& e : plan.core) {
      if (e.r.sv != var && e.r.ov != var) continue;
      StepEdge se;
      se.p = e.r.p;
      se.v_is_subj = e.r.sv == var;
      se.self_loop = e.r.sv == var && e.r.ov == var;
      VarId other = se.v_is_subj ? e.r.ov : e.r.sv;
      size_t col = IndexOf(plan.var_order, other);
      TriplePatternIds projection;
      projection.p = e.r.p;
      if (se.self_loop) {
        se.range = store.Count(projection);
        st.self_loops.push_back(se);
        continue;
      }
      double expected;
      if (other == kInvalidVarId) {
        se.other_const = se.v_is_subj ? e.r.o : e.r.s;
        expected = static_cast<double>(store.Count(se.Pattern({})));
        st.adjacent.push_back(se);
      } else if (col < k) {
        se.other_col = col;
        const PredicateStats& ps = stats.ForPredicate(e.r.p);
        expected = se.v_is_subj ? ps.avg_in() : ps.avg_out();
        st.adjacent.push_back(se);
      } else {
        se.range = store.Count(projection);
        expected = static_cast<double>(se.range);
        st.open.push_back(se);
      }
      max_range = std::max(max_range, expected);
    }
    if (st.adjacent.empty() && st.open.empty() && !st.self_loops.empty()) {
      st.open.push_back(st.self_loops.front());
      st.self_loops.erase(st.self_loops.begin());
      max_range = static_cast<double>(st.open.front().range);
    }
    st.cand_set = cand_set(var);
    if (st.cand_set != nullptr &&
        static_cast<double>(st.cand_set->size() * kProbeCost) < max_range) {
      st.probe_cands = true;
      st.sorted_cands.assign(st.cand_set->begin(), st.cand_set->end());
      // The unbound marker is never a stored value (nor a valid probe key).
      st.sorted_cands.erase(std::remove(st.sorted_cands.begin(),
                                        st.sorted_cands.end(), kInvalidTermId),
                            st.sorted_cands.end());
      std::sort(st.sorted_cands.begin(), st.sorted_cands.end());
    }
    plan.steps.push_back(std::move(st));
  }

  // Residual patterns bind their not-yet-bound variables in pattern order.
  plan.final_vars = plan.var_order;
  for (const ResolvedPattern& r : plan.residual) {
    std::vector<VarId> new_vars;
    for (VarId v : {r.sv, r.pv, r.ov})
      if (v != kInvalidVarId && IndexOf(plan.final_vars, v) == SIZE_MAX &&
          IndexOf(new_vars, v) == SIZE_MAX)
        new_vars.push_back(v);
    for (VarId v : new_vars) plan.final_vars.push_back(v);
    plan.residual_new.push_back(std::move(new_vars));
  }
  return plan;
}

/// The values of a step with no adjacent edge — the seed step, or a
/// variable disconnected from everything bound before it — which do not
/// depend on the row. A constrained variable whose candidate list is
/// kProbeCost times shorter than some open edge's projection gets one
/// existence probe per candidate per such edge; otherwise the first open
/// edge's projection seeds the step, filtered by the candidates when there
/// are any. The step's other self-loops are left to KeepSelfLoops.
void SeedValues(const TripleStore& store, const StepPlan& st,
                BgpEvalCounters* counters, TripleStore::ProbeHint* hint,
                std::vector<TermId>* out) {
  out->clear();
  std::vector<const StepEdge*> probed;
  if (st.probe_cands)
    for (const StepEdge& e : st.open)
      if (st.sorted_cands.size() * kProbeCost < e.range) probed.push_back(&e);
  if (!probed.empty()) {
    // Candidates come sorted, so the probes gallop through the directory.
    size_t reached = 0;  // entries of the first probed edge the list hits
    for (TermId val : st.sorted_cands) {
      bool ok = true;
      for (size_t i = 0; i < probed.size() && ok; ++i) {
        if (counters) ++counters->index_probes;
        size_t n = probed[i]->Reach(store, val, hint);
        if (i == 0) reached += n;
        ok = n > 0;
      }
      if (ok) out->push_back(val);
    }
    if (counters) counters->candidates_pruned += probed[0]->range - reached;
    return;
  }
  const StepEdge& e = st.open.front();
  if (counters) ++counters->index_probes;
  if (st.cand_set == nullptr) {
    ScanValues(store.Match(e.Pattern({}), hint), e, out);
    return;
  }
  std::vector<TermId> projection;
  ScanValues(store.Match(e.Pattern({}), hint), e, &projection);
  KeepCandidates(projection, *st.cand_set, out, counters);
}

/// The values of a step with adjacent edges for one row: the intersection
/// of every adjacent edge's adjacency list, restricted to the candidates
/// when the variable is constrained. While that candidate-derived list is
/// kProbeCost times shorter than an edge's range (from the first edge on,
/// when the sorted candidate list exists), each of its values gets one
/// existence probe instead of a scan of the range. Leaves the result in
/// `out`; `work` and `edge_list` are reused buffers.
void AdjacentValues(const TripleStore& store, const StepPlan& st,
                    const std::vector<TermId>& row, BgpEvalCounters* counters,
                    TripleStore::ProbeHint* hint, std::vector<TermId>* out,
                    std::vector<TermId>* work,
                    std::vector<TermId>* edge_list) {
  bool have = false;  // `out` holds the running list
  for (const StepEdge& e : st.adjacent) {
    TripleStore::MatchedRange range = store.Match(e.Pattern(row), hint);
    if (counters) ++counters->index_probes;
    work->clear();
    const std::vector<TermId>* probe_list = nullptr;
    if (st.cand_set != nullptr) {
      if (have) {
        probe_list = out;
      } else if (st.probe_cands) {
        probe_list = &st.sorted_cands;
      }
      if (probe_list != nullptr &&
          probe_list->size() * kProbeCost >= range.size())
        probe_list = nullptr;
    }
    if (probe_list != nullptr) {
      for (TermId val : *probe_list) {
        if (counters) ++counters->index_probes;
        if (store.Contains(e.With(val, row), hint)) work->push_back(val);
      }
      if (counters)
        counters->candidates_pruned += range.size() - work->size();
    } else {
      edge_list->clear();
      ScanValues(range, e, edge_list);
      if (have) {
        std::set_intersection(out->begin(), out->end(), edge_list->begin(),
                              edge_list->end(), std::back_inserter(*work));
        if (counters && st.cand_set != nullptr)
          counters->candidates_pruned += edge_list->size() - work->size();
      } else if (st.cand_set != nullptr) {
        KeepCandidates(*edge_list, *st.cand_set, work, counters);
      } else {
        std::swap(*work, *edge_list);
      }
    }
    std::swap(*out, *work);
    have = true;
    if (out->empty()) return;
  }
}

/// Keeps the values of `values` that carry every self-loop of the step,
/// one existence probe per value and self-loop.
void KeepSelfLoops(const TripleStore& store, const StepPlan& st,
                   BgpEvalCounters* counters, TripleStore::ProbeHint* hint,
                   std::vector<TermId>* values) {
  for (const StepEdge& e : st.self_loops) {
    if (counters) counters->index_probes += values->size();
    values->erase(std::remove_if(values->begin(), values->end(),
                                 [&](TermId val) {
                                   return !store.Contains(
                                       Triple(val, e.p, val), hint);
                                 }),
                  values->end());
  }
}

/// Extends every partial binding in `rows` (columns = plan.var_order[0..step))
/// with plan.var_order[step]. The per-row logic is independent across rows.
Rows ExtendStep(const TripleStore& store, const WcoPlan& plan, size_t step,
                const Rows& rows, BgpEvalCounters* counters,
                CancelCheckpoint& chk, TripleStore::ProbeHint* hint) {
  const StepPlan& st = plan.steps[step];
  Rows next_rows;
  std::vector<TermId> values;
  std::vector<TermId> work;
  std::vector<TermId> edge_list;
  const bool row_independent = st.adjacent.empty();
  if (row_independent && !rows.empty()) {
    SeedValues(store, st, counters, hint, &values);
    KeepSelfLoops(store, st, counters, hint, &values);
  }
  for (const auto& row : rows) {
    chk.Poll();
    if (!row_independent) {
      AdjacentValues(store, st, row, counters, hint, &values, &work,
                     &edge_list);
      KeepSelfLoops(store, st, counters, hint, &values);
    }
    for (TermId val : values) {
      std::vector<TermId> nrow = row;
      nrow.push_back(val);
      next_rows.push_back(std::move(nrow));
    }
  }
  if (counters) counters->rows_materialized += next_rows.size();
  return next_rows;
}

/// Runs extension steps [first_step, end), core edge verification and
/// residual pattern expansion over one subset of partial bindings. The
/// result rows follow plan.final_vars; rows are NOT yet deduplicated.
Rows CompleteRows(const TripleStore& store, const WcoPlan& plan,
                  size_t first_step, Rows rows, const CandidateMap* cands,
                  BgpEvalCounters* counters, const CancelToken* cancel) {
  CancelCheckpoint chk(cancel);
  // One adaptive probe hint per morsel: rows arrive sorted by their seed
  // column, so consecutive extension and verification probes hit nearby
  // level-1 buckets and the galloping lookup pays O(1) amortized.
  TripleStore::ProbeHint hint;
  for (size_t step = first_step; step < plan.var_order.size(); ++step) {
    rows = ExtendStep(store, plan, step, rows, counters, chk, &hint);
    if (rows.empty()) return rows;
  }

  // --- Verification of core edges not enforced during extension -------
  // Every core edge with both endpoints bound (or constant) must hold;
  // extensions enforced edges incident to the newly added variable with a
  // bound other endpoint, which covers all of them inductively — except
  // edges whose adjacency was skipped as "deferred". Re-check all.
  auto core_col = [&](VarId v) { return IndexOf(plan.var_order, v); };
  {
    Rows verified;
    verified.reserve(rows.size());
    for (auto& row : rows) {
      chk.Poll();
      bool ok = true;
      for (const CoreEdge& e : plan.core) {
        TermId s = e.r.sv == kInvalidVarId ? e.r.s : row[core_col(e.r.sv)];
        TermId o = e.r.ov == kInvalidVarId ? e.r.o : row[core_col(e.r.ov)];
        if (!store.Contains(Triple(s, e.r.p, o), &hint)) {
          ok = false;
          break;
        }
      }
      if (ok) verified.push_back(std::move(row));
    }
    rows = std::move(verified);
  }

  // --- Residual patterns (variable predicates) -------------------------
  size_t bound_count = plan.var_order.size();
  for (size_t ri = 0; ri < plan.residual.size(); ++ri) {
    const ResolvedPattern& r = plan.residual[ri];
    const std::vector<VarId>& new_vars = plan.residual_new[ri];
    auto col_of = [&](VarId v) -> size_t {
      size_t c = IndexOf(plan.final_vars, v);
      return c < bound_count ? c : SIZE_MAX;
    };
    Rows next_rows;
    for (const auto& row : rows) {
      chk.Poll();
      TriplePatternIds q;
      q.s = r.sv == kInvalidVarId
                ? r.s
                : (col_of(r.sv) != SIZE_MAX ? row[col_of(r.sv)] : kInvalidTermId);
      q.p = r.pv == kInvalidVarId
                ? r.p
                : (col_of(r.pv) != SIZE_MAX ? row[col_of(r.pv)] : kInvalidTermId);
      q.o = r.ov == kInvalidVarId
                ? r.o
                : (col_of(r.ov) != SIZE_MAX ? row[col_of(r.ov)] : kInvalidTermId);
      if (counters) ++counters->index_probes;
      store.Scan(q, &hint, [&](const Triple& t) {
        chk.Poll();
        // Repeated-variable consistency within the pattern.
        if (r.sv != kInvalidVarId && r.sv == r.ov && t.s != t.o) return true;
        if (r.sv != kInvalidVarId && r.sv == r.pv && t.s != t.p) return true;
        if (r.pv != kInvalidVarId && r.pv == r.ov && t.p != t.o) return true;
        std::vector<TermId> nrow = row;
        for (VarId v : new_vars) {
          TermId val = v == r.sv ? t.s : (v == r.pv ? t.p : t.o);
          if (cands != nullptr) {
            const auto* cs = cands->Get(v);
            if (cs != nullptr && cs->count(val) == 0) {
              if (counters) ++counters->candidates_pruned;
              return true;
            }
          }
          nrow.push_back(val);
        }
        next_rows.push_back(std::move(nrow));
        return true;
      });
    }
    bound_count += new_vars.size();
    rows = std::move(next_rows);
    if (counters) counters->rows_materialized += rows.size();
    if (rows.empty()) return rows;
  }
  return rows;
}

/// Sort + unique (set semantics of BGP matching) and projection onto the
/// canonical bgp.Variables() schema. Running this globally over the
/// concatenated morsel outputs is what makes the parallel path bit-identical
/// to the sequential one.
BindingSet EmitRows(Rows rows, const WcoPlan& plan,
                    const std::vector<VarId>& all_vars) {
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());

  BindingSet result(all_vars);
  std::vector<size_t> out_cols;
  out_cols.reserve(all_vars.size());
  for (VarId v : all_vars) out_cols.push_back(IndexOf(plan.final_vars, v));
  std::vector<TermId> out_row(all_vars.size());
  result.Reserve(rows.size());
  for (const auto& row : rows) {
    for (size_t i = 0; i < out_cols.size(); ++i)
      out_row[i] = out_cols[i] == SIZE_MAX ? kUnboundTerm : row[out_cols[i]];
    result.AppendRow(out_row);
  }
  return result;
}

}  // namespace

BindingSet WcoEngine::Evaluate(const Bgp& bgp, const CandidateMap* cands,
                               BgpEvalCounters* counters,
                               const CancelToken* cancel,
                               const ParallelSpec& spec) const {
  std::vector<VarId> all_vars = bgp.Variables();
  if (bgp.triples.empty()) {
    BindingSet result(all_vars);
    result.AppendEmptyMappings(1);  // the unit bag
    return result;
  }
  CancelCheckpoint chk(cancel);
  chk.Poll();
  WcoPlan plan = BuildPlan(bgp, store_, dict_, stats_, cands);
  if (plan.definitely_empty) return BindingSet(all_vars);
  if (counters && !plan.steps.empty() && plan.steps[0].cand_set != nullptr)
    ++counters->candidate_seeds;

  // Seed step: bind the first core variable once, producing the partial
  // bindings the morsels partition.
  Rows rows{{}};
  size_t first_step = 0;
  if (!plan.var_order.empty()) {
    TripleStore::ProbeHint seed_hint;
    rows = ExtendStep(store_, plan, 0, rows, counters, chk, &seed_hint);
    first_step = 1;
    if (rows.empty()) return BindingSet(all_vars);
  }

  size_t num_morsels = spec.enabled() ? spec.MorselCount(rows.size()) : 1;
  if (num_morsels <= 1) {
    // Sequential, or too little seed fan-out to split: finish inline.
    rows = CompleteRows(store_, plan, first_step, std::move(rows), cands,
                        counters, cancel);
    return EmitRows(std::move(rows), plan, all_vars);
  }

  size_t per_morsel = (rows.size() + num_morsels - 1) / num_morsels;
  std::vector<Rows> outs(num_morsels);
  std::vector<BgpEvalCounters> local(num_morsels);
  spec.pool->ParallelFor(num_morsels, spec.EffectiveWorkers(), [&](size_t m) {
    ScopedSpan morsel_span(spec.trace, "morsel", spec.trace_parent);
    size_t begin = m * per_morsel;
    size_t end = std::min(begin + per_morsel, rows.size());
    // Morsel ranges are disjoint and `rows` is dead after the ParallelFor,
    // so the seed bindings move instead of copying.
    Rows subset(std::make_move_iterator(rows.begin() + begin),
                std::make_move_iterator(rows.begin() + end));
    outs[m] = CompleteRows(store_, plan, first_step, std::move(subset), cands,
                           &local[m], cancel);
    morsel_span.Attr("seed_rows", std::to_string(end - begin));
    morsel_span.Attr("rows", std::to_string(outs[m].size()));
  });

  Rows merged;
  size_t total = 0;
  for (const Rows& out : outs) total += out.size();
  merged.reserve(total);
  for (Rows& out : outs)
    for (auto& row : out) merged.push_back(std::move(row));
  if (counters) {
    for (const BgpEvalCounters& c : local) counters->Merge(c);
    counters->morsels += num_morsels;
  }
  return EmitRows(std::move(merged), plan, all_vars);
}

double WcoEngine::EstimateCost(const Bgp& bgp) const {
  if (bgp.triples.empty()) return 0.0;
  // cost(WCOJoin({v1..vk-1}, vk)) = card({v1..vk-1}) * min_i avg_size(vi, p).
  // Follow the same greedy pattern order the evaluation uses, accumulating
  // cardinalities with the sampling estimator.
  std::vector<size_t> order = estimator_.GreedyOrder(bgp);
  double cost = 0.0;
  Bgp prefix;
  double card_prev = 1.0;
  for (size_t k = 0; k < order.size(); ++k) {
    const TriplePattern& t = bgp.triples[order[k]];
    if (k == 0) {
      cost += estimator_.EstimateTriple(t);
      prefix.triples.push_back(t);
      card_prev = estimator_.EstimateBgp(prefix);
      continue;
    }
    // Extension fan: the predicate's average adjacency size.
    double fan = 1.0;
    if (!t.p.is_var) {
      TermId p = dict_.Lookup(t.p.term);
      const PredicateStats& ps = stats_.ForPredicate(p);
      // min over the bound endpoints; approximate with the smaller fanout.
      fan = std::max(1.0, std::min(ps.avg_out(), ps.avg_in()));
    }
    cost += card_prev * fan;
    prefix.triples.push_back(t);
    card_prev = estimator_.EstimateBgp(prefix);
  }
  return cost;
}

}  // namespace sparqluo
