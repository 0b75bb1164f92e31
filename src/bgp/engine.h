// BGP evaluation engine interface.
//
// The SPARQL-UO layer (src/engine, src/optimizer) treats BGP evaluation as a
// black box with a cost model, exactly as the paper prescribes: "our
// proposed optimization techniques operate on a higher level than BGP
// evaluation techniques". Two engines are provided, mirroring the paper's
// two host systems:
//   - WcoEngine       (gStore-style worst-case-optimal vertex extension)
//   - HashJoinEngine  (Jena-style binary hash joins)
#pragma once

#include <memory>

#include "algebra/binding_set.h"
#include "bgp/bgp.h"
#include "bgp/candidates.h"
#include "bgp/cardinality.h"
#include "util/cancellation.h"
#include "util/executor_pool.h"

namespace sparqluo {

/// Instrumentation counters filled during evaluation.
struct BgpEvalCounters {
  uint64_t rows_materialized = 0;  ///< Partial + final bindings produced.
  /// Store scans plus the existence probes that replace them: one per
  /// candidate, and one per value a WCO step checks against a self-loop.
  uint64_t index_probes = 0;
  /// Index entries the candidate sets kept out of an evaluation: entries
  /// of a probed range that no candidate reached, scanned adjacency values
  /// a candidate filter dropped, and scanned matches a candidate set
  /// rejected (hash-join scans, WCO residual patterns).
  uint64_t candidates_pruned = 0;
  /// Morsel tasks run; 0 under a sequential ParallelSpec.
  uint64_t morsels = 0;
  /// BGP evaluations whose WCO plan starts at a candidate-constrained
  /// variable (the `seed` attribute of the `bgp` span).
  uint64_t candidate_seeds = 0;
  /// Per-BGP engine decisions made by the adaptive engine (both stay 0
  /// under a fixed engine). The executor diffs these around each BGP to
  /// stamp the chosen engine on the BGP's trace span.
  uint64_t wco_evals = 0;
  uint64_t hashjoin_evals = 0;

  void Merge(const BgpEvalCounters& other) {
    rows_materialized += other.rows_materialized;
    index_probes += other.index_probes;
    candidates_pruned += other.candidates_pruned;
    morsels += other.morsels;
    candidate_seeds += other.candidate_seeds;
    wco_evals += other.wco_evals;
    hashjoin_evals += other.hashjoin_evals;
  }
};

/// Abstract BGP evaluator with the engine-specific cost model of §5.1.2.
class BgpEngine {
 public:
  virtual ~BgpEngine() = default;

  virtual const char* name() const = 0;

  /// Evaluates `bgp` to a BindingSet whose schema is bgp.Variables().
  /// `cands` (nullable) carries candidate pruning sets; variables with a
  /// candidate set only take values from it. `counters` (nullable) collects
  /// instrumentation. `cancel` (nullable) is polled at evaluation
  /// checkpoints; a fired token aborts with a CancelledError that the
  /// Executor converts to a ResourceExhausted status. `spec` fans heavy
  /// per-row work out over `spec.pool` in morsels; the default spec (no
  /// pool, or parallelism 1) is sequential evaluation — one worker draining
  /// every morsel. The result (schema and row order) is bit-identical for
  /// every spec.
  virtual BindingSet Evaluate(const Bgp& bgp, const CandidateMap* cands,
                              BgpEvalCounters* counters,
                              const CancelToken* cancel,
                              const ParallelSpec& spec) const = 0;

  BindingSet Evaluate(const Bgp& bgp, const CandidateMap* cands,
                      BgpEvalCounters* counters,
                      const CancelToken* cancel = nullptr) const {
    return Evaluate(bgp, cands, counters, cancel, ParallelSpec{});
  }

  BindingSet Evaluate(const Bgp& bgp) const {
    return Evaluate(bgp, nullptr, nullptr);
  }

  /// cost(P): estimated evaluation cost of the BGP under this engine's join
  /// strategy (WCO join cost or binary join cost).
  virtual double EstimateCost(const Bgp& bgp) const = 0;

  /// |res(P)| estimate, shared across engines.
  double EstimateCardinality(const Bgp& bgp) const {
    return estimator().EstimateBgp(bgp);
  }

  virtual const CardinalityEstimator& estimator() const = 0;
};

/// Which host system's BGP engine to instantiate. kAdaptive holds both and
/// picks the cheaper per BGP from the engines' own cost models (the
/// cardinality pilot the planner already runs).
enum class EngineKind { kWco, kHashJoin, kAdaptive };

/// Human-readable engine name ("gStore-WCO" / "Jena-HashJoin" / "Adaptive").
const char* EngineKindName(EngineKind kind);

/// Creates an engine bound to the given store/dictionary/statistics. All
/// referenced objects must outlive the engine.
std::unique_ptr<BgpEngine> MakeEngine(EngineKind kind, const TripleStore& store,
                                      const Dictionary& dict,
                                      const Statistics& stats);

}  // namespace sparqluo
