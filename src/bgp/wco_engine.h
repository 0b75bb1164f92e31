// gStore-style worst-case-optimal (WCO) join BGP engine.
//
// Evaluation proceeds vertex-at-a-time over the query graph: each step picks
// the next variable and, for every partial binding, intersects the adjacency
// lists of all already-bound neighbors to produce the variable's matches
// (Section 5.1.2). Candidate pruning sets (§6) drive the extension: a
// constrained variable may seed the order, and a candidate list far shorter
// than an index range replaces the scan with one existence probe per
// candidate, so the entries the candidates exclude are never read. Longer
// lists filter the scanned adjacency values.
#pragma once

#include "bgp/engine.h"

namespace sparqluo {

class WcoEngine : public BgpEngine {
 public:
  WcoEngine(const TripleStore& store, const Dictionary& dict,
            const Statistics& stats)
      : store_(store), dict_(dict), stats_(stats),
        estimator_(store, dict, stats) {}

  const char* name() const override { return "gStore-WCO"; }

  BindingSet Evaluate(const Bgp& bgp, const CandidateMap* cands,
                      BgpEvalCounters* counters,
                      const CancelToken* cancel) const override;

  /// Morsel-driven evaluation, bit-identical to Evaluate: the seed
  /// variable's bindings are produced sequentially, partitioned into
  /// morsels, and each morsel runs the remaining vertex extensions,
  /// verification and residual expansion independently. The final global
  /// sort+dedup (shared with the sequential path) makes the merge
  /// deterministic.
  BindingSet ParallelEvaluate(const Bgp& bgp, const CandidateMap* cands,
                              BgpEvalCounters* counters,
                              const CancelToken* cancel,
                              const ParallelSpec& spec) const override;

  /// WCO join cost: sum over extension steps of
  ///   card({v1..vk-1}) * min_i average_size(vi, p).
  double EstimateCost(const Bgp& bgp) const override;

  const CardinalityEstimator& estimator() const override { return estimator_; }

 private:
  const TripleStore& store_;
  const Dictionary& dict_;
  const Statistics& stats_;
  CardinalityEstimator estimator_;
};

}  // namespace sparqluo
