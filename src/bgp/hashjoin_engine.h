// Jena-style binary hash-join BGP engine.
//
// Each triple pattern is scanned into a full binding table (filtered by
// candidate sets when present), then the tables are combined pairwise with
// hash joins in a greedy order. This mirrors the evaluation strategy the
// paper attributes to Jena, including its cost model (Equation 9):
//
//   cost(BinaryJoin(V1, V2)) = 2 * min(card(V1), card(V2))
//                            +     max(card(V1), card(V2))
#pragma once

#include "bgp/engine.h"

namespace sparqluo {

class HashJoinEngine : public BgpEngine {
 public:
  HashJoinEngine(const TripleStore& store, const Dictionary& dict,
                 const Statistics& stats)
      : store_(store), dict_(dict), stats_(stats),
        estimator_(store, dict, stats) {}

  using BgpEngine::Evaluate;  // the convenience overloads

  const char* name() const override { return "Jena-HashJoin"; }

  /// Pattern scans are partitioned over the store's sorted index ranges and
  /// each binary join runs as a sharded hash build plus a morsel probe
  /// (Join with `spec`). Per-morsel tables concatenate in morsel order, so
  /// the row order is the same for every spec.
  BindingSet Evaluate(const Bgp& bgp, const CandidateMap* cands,
                      BgpEvalCounters* counters, const CancelToken* cancel,
                      const ParallelSpec& spec) const override;

  double EstimateCost(const Bgp& bgp) const override;

  const CardinalityEstimator& estimator() const override { return estimator_; }

 private:
  /// Scans one triple pattern into a binding table, with the matched index
  /// range split into morsels when `spec` is enabled; the morsel tables
  /// concatenate to the one-morsel scan's rows.
  BindingSet ScanPattern(const TriplePattern& t, const CandidateMap* cands,
                         BgpEvalCounters* counters, const CancelToken* cancel,
                         const ParallelSpec& spec) const;

  const TripleStore& store_;
  const Dictionary& dict_;
  const Statistics& stats_;
  CardinalityEstimator estimator_;
};

}  // namespace sparqluo
