// gStore-style worst-case-optimal (WCO) join BGP engine.
//
// Evaluation proceeds vertex-at-a-time over the query graph: each step picks
// the next variable and, for every partial binding, intersects the adjacency
// lists of all already-bound neighbors to produce the variable's matches
// (Section 5.1.2). Candidate pruning sets (§6) drive the extension: a
// constrained variable may seed the order, and a candidate list far shorter
// than an index range replaces the scan with one existence probe per
// candidate, so the entries the candidates exclude are never read. Longer
// lists filter the scanned adjacency values. A self-loop ?v p ?v is checked
// with one existence probe per produced value, never by rescanning the
// predicate per partial binding.
#pragma once

#include "bgp/engine.h"

namespace sparqluo {

class WcoEngine : public BgpEngine {
 public:
  WcoEngine(const TripleStore& store, const Dictionary& dict,
            const Statistics& stats)
      : store_(store), dict_(dict), stats_(stats),
        estimator_(store, dict, stats) {}

  using BgpEngine::Evaluate;  // the convenience overloads

  const char* name() const override { return "gStore-WCO"; }

  /// The seed variable's bindings are produced once and partitioned into
  /// morsels; each morsel runs the remaining vertex extensions,
  /// verification and residual expansion independently. A disabled spec
  /// or a seed that fits one morsel finishes inline. The final global
  /// sort+dedup makes the result the same for every spec.
  BindingSet Evaluate(const Bgp& bgp, const CandidateMap* cands,
                      BgpEvalCounters* counters, const CancelToken* cancel,
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
