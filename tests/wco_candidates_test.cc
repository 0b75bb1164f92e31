// Candidate-driven WCO evaluation: the §6 candidate sets choose and seed
// the extension order instead of filtering its output. Checked against the
// unpruned WCO result filtered by the candidates, against the hash-join
// engine with the same candidates, and across sequential and morsel-parallel
// evaluation, on random small graphs with random candidate subsets.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "bgp/hashjoin_engine.h"
#include "bgp/wco_engine.h"
#include "engine/database.h"

namespace sparqluo {
namespace {

/// Exact (bitwise) equality: same schema, same rows in the same order.
bool BitIdentical(const BindingSet& a, const BindingSet& b) {
  if (a.schema() != b.schema() || a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r)
    for (size_t c = 0; c < a.width(); ++c)
      if (a.At(r, c) != b.At(r, c)) return false;
  return true;
}

/// The rows of `rows` whose constrained variables all take candidate values,
/// in their original order.
BindingSet FilterByCandidates(const BindingSet& rows,
                              const CandidateMap& cands) {
  BindingSet out(rows.schema());
  std::vector<TermId> row(rows.width());
  for (size_t r = 0; r < rows.size(); ++r) {
    bool keep = true;
    for (size_t c = 0; c < rows.width() && keep; ++c) {
      row[c] = rows.At(r, c);
      keep = cands.Admits(rows.schema()[c], row[c]);
    }
    if (keep) out.AppendRow(row);
  }
  return out;
}

Term Node(int i) { return Term::Iri("http://ex.org/n" + std::to_string(i)); }
Term Pred(int i) { return Term::Iri("http://ex.org/p" + std::to_string(i)); }

/// A random graph over `nodes` nodes and `preds` predicates, with a share
/// of self-loops so `?x p ?x` patterns have matches.
void BuildRandomGraph(std::mt19937* rng, int nodes, int preds, int triples,
                      Database* db) {
  std::uniform_int_distribution<int> node(0, nodes - 1);
  std::uniform_int_distribution<int> pred(0, preds - 1);
  std::uniform_int_distribution<int> pct(0, 99);
  for (int i = 0; i < triples; ++i) {
    int s = node(*rng);
    int o = pct(*rng) < 15 ? s : node(*rng);
    db->AddTriple(Node(s), Pred(pred(*rng)), Node(o));
  }
  db->Finalize(EngineKind::kWco);
}

class WcoCandidatesTest : public ::testing::Test {
 protected:
  /// Builds the engines over `db_` (after the graph is loaded).
  void MakeEngines() {
    wco_ = std::make_unique<WcoEngine>(db_.store(), db_.dict(), db_.stats());
    hj_ = std::make_unique<HashJoinEngine>(db_.store(), db_.dict(),
                                           db_.stats());
  }

  TermId IdOf(const Term& t) const { return db_.dict().Lookup(t); }

  Database db_;
  VarTable vars_;
  // Held through the base class, as the executor holds them.
  std::unique_ptr<BgpEngine> wco_;
  std::unique_ptr<BgpEngine> hj_;
};

/// A random slot: one of `var_names` (as a variable) or a constant from
/// `make_const`, with probability `var_pct` percent for the variable.
template <typename MakeConst>
PatternSlot RandomSlot(std::mt19937* rng, VarTable* vars,
                       const std::vector<std::string>& var_names, int var_pct,
                       MakeConst make_const) {
  std::uniform_int_distribution<int> pct(0, 99);
  if (pct(*rng) < var_pct) {
    std::uniform_int_distribution<size_t> pick(0, var_names.size() - 1);
    return PatternSlot::Var(vars->Intern(var_names[pick(*rng)]));
  }
  return PatternSlot::Const(make_const());
}

TEST_F(WcoCandidatesTest, RandomGraphsMatchFilteredUnprunedAndHashJoin) {
  ExecutorPool pool(3);
  ParallelSpec spec;
  spec.pool = &pool;
  spec.parallelism = 4;
  spec.morsel_size = 2;  // many morsels even on tiny seed lists

  const std::vector<std::string> so_vars = {"a", "b", "c", "d"};
  size_t checked = 0;
  size_t seeded = 0;
  for (uint32_t seed = 1; seed <= 30; ++seed) {
    Database db;
    std::mt19937 rng(seed);
    const int nodes = 6 + static_cast<int>(seed % 10);
    const int preds = 3;
    BuildRandomGraph(&rng, nodes, preds, 20 + static_cast<int>(seed) * 8, &db);
    WcoEngine wco_engine(db.store(), db.dict(), db.stats());
    HashJoinEngine hj_engine(db.store(), db.dict(), db.stats());
    const BgpEngine& wco = wco_engine;
    const BgpEngine& hj = hj_engine;
    std::uniform_int_distribution<int> node(0, nodes - 1);
    std::uniform_int_distribution<int> pred(0, preds - 1);
    std::uniform_int_distribution<int> pct(0, 99);

    for (int q = 0; q < 25; ++q) {
      VarTable vars;
      Bgp bgp;
      int patterns = 1 + static_cast<int>(rng() % 3);
      for (int i = 0; i < patterns; ++i) {
        TriplePattern t;
        t.s = RandomSlot(&rng, &vars, so_vars, 85,
                         [&] { return Node(node(rng)); });
        t.p = pct(rng) < 15 ? PatternSlot::Var(vars.Intern("p"))
                            : PatternSlot::Const(Pred(pred(rng)));
        // Some patterns repeat the subject variable: ?x p ?x.
        if (t.s.is_var && pct(rng) < 15) {
          t.o = t.s;
        } else {
          t.o = RandomSlot(&rng, &vars, so_vars, 75,
                           [&] { return Node(node(rng)); });
        }
        bgp.triples.push_back(t);
      }

      // Random candidate subsets over a random subset of the variables,
      // including ids the store has never seen and empty sets.
      CandidateMap cands;
      for (VarId v : bgp.Variables()) {
        if (pct(rng) < 40) continue;
        CandidateMap::Set set;
        int n = static_cast<int>(rng() % 6);
        for (int i = 0; i < n; ++i) {
          TermId id = db.dict().Lookup(Node(node(rng)));
          if (id != kInvalidTermId) set.insert(id);  // skip unused nodes
        }
        if (pct(rng) < 30)  // an id the store has never seen
          set.insert(static_cast<TermId>(db.dict().size() + 7));
        cands.Set_(v, std::move(set));
      }
      if (cands.empty()) continue;

      SCOPED_TRACE(::testing::Message()
                   << "seed " << seed << " query " << q << ": "
                   << bgp.ToString(vars));
      BindingSet unpruned = wco.Evaluate(bgp);
      BgpEvalCounters counters;
      BindingSet pruned = wco.Evaluate(bgp, &cands, &counters);
      // Candidates may change the extension order, and with it the row
      // order, so the oracles compare bags; parallel runs share the plan.
      EXPECT_TRUE(BagEquals(pruned, FilterByCandidates(unpruned, cands)));
      EXPECT_TRUE(BagEquals(pruned, hj.Evaluate(bgp, &cands, nullptr)));
      BindingSet parallel =
          wco.Evaluate(bgp, &cands, nullptr, nullptr, spec);
      EXPECT_TRUE(BitIdentical(parallel, pruned));
      seeded += counters.candidate_seeds;
      ++checked;
    }
  }
  EXPECT_GT(checked, 300u);
  EXPECT_GT(seeded, 100u);  // candidates really drove many plans
}

// A candidate variable that appears only in a variable-predicate pattern is
// filtered during residual expansion; the result still matches the oracle.
TEST_F(WcoCandidatesTest, CandidateOnlyInVariablePredicatePattern) {
  std::mt19937 rng(7);
  BuildRandomGraph(&rng, 8, 3, 60, &db_);
  MakeEngines();
  Bgp bgp;
  TriplePattern core;
  core.s = PatternSlot::Var(vars_.Intern("a"));
  core.p = PatternSlot::Const(Pred(0));
  core.o = PatternSlot::Var(vars_.Intern("b"));
  TriplePattern residual;
  residual.s = PatternSlot::Var(vars_.Intern("b"));
  residual.p = PatternSlot::Var(vars_.Intern("p"));
  residual.o = PatternSlot::Var(vars_.Intern("z"));
  bgp.triples = {core, residual};
  CandidateMap cands;
  cands.Set_(vars_.Lookup("z"), {IdOf(Node(1)), IdOf(Node(2)),
                                 static_cast<TermId>(db_.dict().size() + 3)});
  BgpEvalCounters counters;
  BindingSet pruned = wco_->Evaluate(bgp, &cands, &counters);
  EXPECT_TRUE(
      BagEquals(pruned, FilterByCandidates(wco_->Evaluate(bgp), cands)));
  EXPECT_TRUE(BagEquals(pruned, hj_->Evaluate(bgp, &cands, nullptr)));
  EXPECT_EQ(counters.candidate_seeds, 0u);  // ?z is not a core variable
  EXPECT_GT(pruned.size(), 0u);
}

/// A star graph for probe counting: every hub has `fan` objects over p0,
/// one over p1 and one over p2, and the even hubs a p2 self-loop.
void BuildStarGraph(int hubs, int fan, Database* db) {
  for (int h = 0; h < hubs; ++h) {
    for (int i = 0; i < fan; ++i)
      db->AddTriple(Node(h), Pred(0), Node(1000 + h * fan + i));
    db->AddTriple(Node(h), Pred(1), Node(5000 + h));
    db->AddTriple(Node(h), Pred(2), Node(6000 + h));
    if (h % 2 == 0) db->AddTriple(Node(h), Pred(2), Node(h));  // self-loop
  }
  db->Finalize(EngineKind::kWco);
}

// A candidate-seeded step with no bound neighbour issues at most one
// existence probe per candidate per open edge (instead of scanning a
// projection far longer than the list), and every later step one probe per
// surviving row and edge.
TEST_F(WcoCandidatesTest, CandidateSeedProbesOncePerCandidatePerEdge) {
  BuildStarGraph(/*hubs=*/40, /*fan=*/10, &db_);
  MakeEngines();
  const VarId x = vars_.Intern("x");
  const VarId y = vars_.Intern("y");
  const VarId z = vars_.Intern("z");
  CandidateMap cands;
  // Three hubs, one node that is only an object, one id the store lacks.
  cands.Set_(x, {IdOf(Node(3)), IdOf(Node(4)), IdOf(Node(9)),
                 IdOf(Node(1000)), static_cast<TermId>(db_.dict().size() + 1)});
  const uint64_t ncand = 5;

  auto pattern = [](VarId s, int p, VarId o) {
    TriplePattern t;
    t.s = PatternSlot::Var(s);
    t.p = PatternSlot::Const(Pred(p));
    t.o = PatternSlot::Var(o);
    return t;
  };

  {  // One edge: ?x p0 ?y.
    Bgp bgp;
    bgp.triples = {pattern(x, 0, y)};
    BgpEvalCounters c;
    BindingSet r = wco_->Evaluate(bgp, &cands, &c);
    EXPECT_EQ(r.size(), 30u);  // three hubs x fan 10
    EXPECT_EQ(c.candidate_seeds, 1u);
    // Seed: <= one probe per candidate; ?y: one adjacency probe per hub.
    EXPECT_LE(c.index_probes, ncand * 1 + 3);
    EXPECT_GT(c.candidates_pruned, 0u);
    EXPECT_TRUE(BagEquals(r, FilterByCandidates(wco_->Evaluate(bgp), cands)));
  }
  {  // Two open edges on the seed: ?x p0 ?y . ?x p1 ?z.
    Bgp bgp;
    bgp.triples = {pattern(x, 0, y), pattern(x, 1, z)};
    BgpEvalCounters c;
    BindingSet r = wco_->Evaluate(bgp, &cands, &c);
    EXPECT_EQ(r.size(), 30u);
    EXPECT_EQ(c.candidate_seeds, 1u);
    // Seed: <= 2 probes per candidate; then ?z (the shorter edge) and ?y
    // one adjacency probe per hub row each.
    EXPECT_LE(c.index_probes, ncand * 2 + 3 + 3);
    EXPECT_TRUE(BagEquals(r, FilterByCandidates(wco_->Evaluate(bgp), cands)));
  }
  {  // Self-loop: ?x p2 ?x (60 triples) — one probe per candidate, no scan.
    Bgp bgp;
    bgp.triples = {pattern(x, 2, x)};
    BgpEvalCounters c;
    BindingSet r = wco_->Evaluate(bgp, &cands, &c);
    EXPECT_EQ(r.size(), 1u);  // only hub 4 of {3, 4, 9} is even
    EXPECT_EQ(c.candidate_seeds, 1u);
    EXPECT_LE(c.index_probes, 1 + ncand);  // one range lookup + the probes
    EXPECT_TRUE(BagEquals(r, FilterByCandidates(wco_->Evaluate(bgp), cands)));
  }
}

// With more candidates than the edge's projection holds, the step keeps the
// projection seed (one scan) and intersects it with the sorted candidates.
TEST_F(WcoCandidatesTest, LargeCandidateListKeepsProjectionSeed) {
  BuildStarGraph(/*hubs=*/4, /*fan=*/2, &db_);
  MakeEngines();
  const VarId x = vars_.Intern("x");
  const VarId z = vars_.Intern("z");
  CandidateMap::Set set;  // two hubs and all 8 objects: 10 candidates
  for (int h = 0; h < 4; h += 2) set.insert(IdOf(Node(h)));
  for (int i = 0; i < 8; ++i) set.insert(IdOf(Node(1000 + i)));
  CandidateMap cands;
  cands.Set_(x, std::move(set));
  Bgp bgp;
  TriplePattern t;
  t.s = PatternSlot::Var(x);
  t.p = PatternSlot::Const(Pred(1));  // 4 triples < 10 candidates
  t.o = PatternSlot::Var(z);
  bgp.triples = {t};
  BgpEvalCounters c;
  BindingSet r = wco_->Evaluate(bgp, &cands, &c);
  EXPECT_EQ(r.size(), 2u);
  // One projection scan for ?x, one adjacency probe per surviving row.
  EXPECT_EQ(c.index_probes, 1u + 2u);
  EXPECT_EQ(c.candidates_pruned, 2u);  // hubs 1 and 3 were scanned, excluded
  EXPECT_TRUE(BagEquals(r, FilterByCandidates(wco_->Evaluate(bgp), cands)));
}

// Candidates on a variable next to a constant are probed against its
// adjacency list (30 entries, far more than 3 candidates); the plan seeds
// from the candidates.
TEST_F(WcoCandidatesTest, ConstantNeighbourProbesCandidates) {
  BuildStarGraph(/*hubs=*/40, /*fan=*/30, &db_);
  MakeEngines();
  const VarId y = vars_.Intern("y");
  CandidateMap cands;
  cands.Set_(y, {IdOf(Node(1000)), IdOf(Node(1001)), IdOf(Node(1030))});
  Bgp bgp;
  TriplePattern t;
  t.s = PatternSlot::Const(Node(0));
  t.p = PatternSlot::Const(Pred(0));
  t.o = PatternSlot::Var(y);
  bgp.triples = {t};
  BgpEvalCounters c;
  BindingSet r = wco_->Evaluate(bgp, &cands, &c);
  EXPECT_EQ(r.size(), 2u);  // n1030 belongs to hub 1
  EXPECT_EQ(c.candidate_seeds, 1u);
  EXPECT_EQ(c.candidates_pruned, 28u);  // hub 0's other 28 objects
  EXPECT_EQ(c.index_probes, 1u + 3u);   // the range lookup + 3 probes
  EXPECT_TRUE(BagEquals(r, FilterByCandidates(wco_->Evaluate(bgp), cands)));
}

// A self-loop ?v p ?v costs one existence probe per value the step's other
// edges produce, and a variable bound only through self-loops is computed
// once per extension, not once per partial binding. Each self-loop
// projection here is longer than the p0 projection, so ?x seeds the plan
// and the self-loop steps come after it.
TEST_F(WcoCandidatesTest, SelfLoopStepsProbeInsteadOfRescanning) {
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    db_.AddTriple(Node(i), Pred(0), Node(1000 + i));
    if (i % 2 == 0) db_.AddTriple(Node(1000 + i), Pred(2), Node(1000 + i));
  }
  for (int i = 0; i < 50; ++i) {
    db_.AddTriple(Node(2000 + i), Pred(3), Node(2000 + i));  // self-loops
    for (int k = 0; k < 6; ++k)
      db_.AddTriple(Node(2000 + i), Pred(3), Node(3000 + k));
  }
  for (int i = 0; i < 2 * n; ++i)  // lengthen p2's projection past p0's
    db_.AddTriple(Node(5000 + i), Pred(2), Node(6000 + i));
  db_.Finalize(EngineKind::kWco);
  MakeEngines();
  const VarId x = vars_.Intern("x");
  const VarId y = vars_.Intern("y");
  const VarId z = vars_.Intern("z");
  auto pattern = [](VarId s, int p, VarId o) {
    TriplePattern t;
    t.s = PatternSlot::Var(s);
    t.p = PatternSlot::Const(Pred(p));
    t.o = PatternSlot::Var(o);
    return t;
  };
  ExecutorPool pool(3);
  ParallelSpec spec;
  spec.pool = &pool;
  spec.parallelism = 4;
  spec.morsel_size = 16;

  {  // ?x p0 ?y . ?y p2 ?y: one probe per ?y value, no p2 projection scan.
    Bgp bgp;
    bgp.triples = {pattern(x, 0, y), pattern(y, 2, y)};
    BgpEvalCounters c;
    BindingSet r = wco_->Evaluate(bgp, nullptr, &c);
    EXPECT_EQ(r.size(), static_cast<size_t>(n / 2));
    // The p0 seed scan, then per ?x row its p0 list and one self-loop probe.
    EXPECT_LE(c.index_probes, 1u + 2u * n);
    EXPECT_TRUE(BagEquals(r, hj_->Evaluate(bgp)));
    EXPECT_TRUE(
        BitIdentical(wco_->Evaluate(bgp, nullptr, nullptr, nullptr, spec), r));
  }
  {  // ?x p0 ?y . ?z p3 ?z: ?z's values are computed once, not per row.
    Bgp bgp;
    bgp.triples = {pattern(x, 0, y), pattern(z, 3, z)};
    BgpEvalCounters c;
    BindingSet r = wco_->Evaluate(bgp, nullptr, &c);
    EXPECT_EQ(r.size(), static_cast<size_t>(n * 50));
    // The p0 seed scan, one p0 list per ?x row, one p3 projection scan.
    EXPECT_LE(c.index_probes, 1u + n + 1u);
    EXPECT_TRUE(BagEquals(r, hj_->Evaluate(bgp)));
    EXPECT_TRUE(
        BitIdentical(wco_->Evaluate(bgp, nullptr, nullptr, nullptr, spec), r));
  }
}

}  // namespace
}  // namespace sparqluo
