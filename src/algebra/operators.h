// Bag-semantics operators over BindingSets (Section 3, Definition 7).
//
// All operators preserve duplicates. Compatibility (µ1 ~ µ2) is
// domain-aware: variables absent from dom(µ) — unbound cells — are
// compatible with anything, which is what makes OPTIONAL-produced partial
// mappings join correctly.
#pragma once

#include "algebra/binding_set.h"
#include "sparql/ast.h"
#include "util/cancellation.h"
#include "util/executor_pool.h"

namespace sparqluo {

/// Ω1 ⋈ Ω2 = { µ1 ∪ µ2 | µ1 ∈ Ω1, µ2 ∈ Ω2, µ1 ~ µ2 }.
///
/// A hash build over the smaller side and a probe of the larger. `spec`
/// shards the build across `spec.pool` and probes in morsels whose outputs
/// concatenate in morsel order; the default spec (no pool, or parallelism
/// 1) is the one-shard, one-morsel case, run inline. Schema and row order
/// are the same for every spec. `cancel` (nullable) is polled per emitted
/// row: join output can be |Ω1|·|Ω2|, so without a checkpoint here a
/// join-dominated query could overshoot its deadline without bound.
/// `morsels` (nullable) accumulates the number of parallel tasks issued.
BindingSet Join(const BindingSet& a, const BindingSet& b,
                const CancelToken* cancel = nullptr,
                const ParallelSpec& spec = {}, uint64_t* morsels = nullptr);

/// Ω1 ∪_bag Ω2 over the union schema (missing columns padded unbound).
BindingSet UnionBag(const BindingSet& a, const BindingSet& b);

/// Ω1 ▷ Ω2 = { µ1 ∈ Ω1 | ∀µ2 ∈ Ω2 : µ1 ≁ µ2 }.
BindingSet Minus(const BindingSet& a, const BindingSet& b);

/// Left outer join: (Ω1 ⋈ Ω2) ∪_bag (Ω1 ▷ Ω2). Single-pass implementation.
/// `cancel` as in Join.
BindingSet LeftOuterJoin(const BindingSet& a, const BindingSet& b,
                         const CancelToken* cancel = nullptr);

/// Keeps the mappings for which `filter` evaluates to true. Mappings on
/// which the expression errors (e.g. comparison over an unbound variable)
/// are dropped, per SPARQL error semantics.
BindingSet ApplyFilter(const BindingSet& a, const FilterExpr& filter,
                       const Dictionary& dict);

namespace internal {
/// True iff the two rows agree on every shared variable that is bound in
/// both. `cols` lists (column in a, column in b) pairs of shared variables.
bool RowsCompatible(const TermId* ra, const TermId* rb,
                    const std::vector<std::pair<size_t, size_t>>& cols);
}  // namespace internal

}  // namespace sparqluo
