// Morsel-driven intra-query parallelism: bit-identical results, abort
// behavior, the ExecutorPool primitive, and the deterministic morsel Join.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "algebra/operators.h"
#include "engine/database.h"
#include "server/query_service.h"
#include "util/executor_pool.h"
#include "workload/lubm_generator.h"
#include "workload/paper_queries.h"

namespace sparqluo {
namespace {

constexpr size_t kRowLimit = 2000000;

/// Exact (bitwise) equality: same schema, same rows in the same order.
/// Stronger than BagEquals on purpose — parallel evaluation must not
/// perturb results at all relative to the sequential path.
bool BitIdentical(const BindingSet& a, const BindingSet& b) {
  if (a.schema() != b.schema() || a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r)
    for (size_t c = 0; c < a.width(); ++c)
      if (a.At(r, c) != b.At(r, c)) return false;
  return true;
}

// --- ExecutorPool unit tests --------------------------------------------

TEST(ExecutorPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ExecutorPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(hits.size(), 0, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ExecutorPoolTest, ParallelForRunsSequentiallyWithOneWorker) {
  ExecutorPool pool(2);
  std::vector<size_t> order;
  pool.ParallelFor(16, 1, [&](size_t i) { order.push_back(i); });
  std::vector<size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);  // max_workers=1: caller runs all, in order
}

TEST(ExecutorPoolTest, ParallelForPropagatesFirstException) {
  ExecutorPool pool(2);
  struct Boom {};
  EXPECT_THROW(pool.ParallelFor(64, 0,
                                [&](size_t i) {
                                  if (i % 7 == 0) throw Boom{};
                                }),
               Boom);
}

TEST(ExecutorPoolTest, ParallelForMakesProgressOnSaturatedPool) {
  // Block every pool worker; ParallelFor must still complete because the
  // calling thread drains the morsel counter itself.
  ExecutorPool pool(2);
  std::atomic<bool> release{false};
  for (int i = 0; i < 2; ++i)
    pool.Submit([&] {
      while (!release.load()) std::this_thread::yield();
    });
  std::atomic<int> done{0};
  pool.ParallelFor(32, 0, [&](size_t) { ++done; });
  EXPECT_EQ(done.load(), 32);
  release.store(true);
}

TEST(ExecutorPoolTest, SubmitAfterShutdownRunsInline) {
  ExecutorPool pool(1);
  pool.Shutdown();
  bool ran = false;
  pool.Submit([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(ExecutorPoolTest, MorselCountMath) {
  ParallelSpec spec;
  spec.morsel_size = 100;
  EXPECT_EQ(spec.MorselCount(0), 0u);
  EXPECT_EQ(spec.MorselCount(1), 1u);
  EXPECT_EQ(spec.MorselCount(100), 1u);
  EXPECT_EQ(spec.MorselCount(101), 2u);
  EXPECT_EQ(spec.MorselCount(1000), 10u);
}

// --- Morsel Join determinism --------------------------------------------

class ParallelJoinTest : public ::testing::Test {
 protected:
  void SetUp() override { pool_ = std::make_unique<ExecutorPool>(3); }

  ParallelSpec Spec(size_t morsel_size) {
    ParallelSpec spec;
    spec.pool = pool_.get();
    spec.parallelism = 4;
    spec.morsel_size = morsel_size;
    return spec;
  }

  std::unique_ptr<ExecutorPool> pool_;
};

TEST_F(ParallelJoinTest, MatchesJoinOnSharedVariable) {
  BindingSet a({1, 2}), b({2, 3});
  for (TermId i = 1; i <= 200; ++i) a.AppendRow({i, i % 10});
  for (TermId i = 1; i <= 150; ++i) b.AppendRow({i % 10, i});
  uint64_t morsels = 0;
  BindingSet par = Join(a, b, nullptr, Spec(16), &morsels);
  EXPECT_TRUE(BitIdentical(par, Join(a, b)));
  EXPECT_GT(morsels, 1u);
}

TEST_F(ParallelJoinTest, MatchesJoinOnCrossProduct) {
  BindingSet a({1}), b({2});
  for (TermId i = 1; i <= 40; ++i) a.AppendRow({i});
  for (TermId i = 1; i <= 30; ++i) b.AppendRow({i});
  BindingSet par = Join(a, b, nullptr, Spec(8), nullptr);
  EXPECT_TRUE(BitIdentical(par, Join(a, b)));
}

TEST_F(ParallelJoinTest, MatchesJoinWithUnboundBuildRows) {
  // Unbound join-key cells on the build side force the single-shard
  // fallback (partial rows are emitted after bucket matches); the result
  // must still be bit-identical to the sequential join.
  BindingSet a({1, 2}), b({2, 3});
  for (TermId i = 1; i <= 30; ++i)
    a.AppendRow({i, i % 3 == 0 ? kUnboundTerm : i % 5});
  for (TermId i = 1; i <= 90; ++i) b.AppendRow({i % 5, i});
  BindingSet par = Join(a, b, nullptr, Spec(8), nullptr);
  EXPECT_TRUE(BitIdentical(par, Join(a, b)));
}

TEST_F(ParallelJoinTest, MatchesJoinOnMultiVariableKey) {
  BindingSet a({1, 2, 3}), b({2, 3, 4});
  for (TermId i = 1; i <= 120; ++i) a.AppendRow({i, i % 4, i % 6});
  for (TermId i = 1; i <= 80; ++i) b.AppendRow({i % 4, i % 6, i});
  BindingSet par = Join(a, b, nullptr, Spec(16), nullptr);
  EXPECT_TRUE(BitIdentical(par, Join(a, b)));
}

// --- Engine-level morsel execution --------------------------------------

class ParallelEngineTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    LubmConfig cfg;
    cfg.universities = 2;
    GenerateLubm(cfg, &db_);
    db_.Finalize(GetParam());
    pool_ = std::make_unique<ExecutorPool>(7);
  }

  ExecOptions Sequential() {
    ExecOptions o = ExecOptions::Full();
    o.max_intermediate_rows = kRowLimit;
    return o;
  }

  /// Full mode with the given parallelism and a small morsel size, so even
  /// the modest test dataset splits into many morsels.
  ExecOptions Parallel(size_t parallelism, size_t morsel_size = 64) {
    ExecOptions o = Sequential();
    o.parallel.parallelism = parallelism;
    o.parallel.morsel_size = morsel_size;
    o.parallel.pool = pool_.get();
    return o;
  }

  Database db_;
  std::unique_ptr<ExecutorPool> pool_;
};

INSTANTIATE_TEST_SUITE_P(Engines, ParallelEngineTest,
                         ::testing::Values(EngineKind::kWco,
                                           EngineKind::kHashJoin,
                                           EngineKind::kAdaptive),
                         [](const auto& info) {
                           switch (info.param) {
                             case EngineKind::kWco: return "Wco";
                             case EngineKind::kHashJoin: return "HashJoin";
                             case EngineKind::kAdaptive: return "Adaptive";
                           }
                           return "Unknown";
                         });

// Morsel execution is bit-identical to sequential execution on the whole
// paper workload, across parallelism degrees.
TEST_P(ParallelEngineTest, BitIdenticalToSequentialOnPaperWorkload) {
  const auto& workload = LubmPaperQueries();
  uint64_t total_morsels = 0;
  for (const PaperQuery& q : workload) {
    auto seq = db_.Query(q.sparql, Sequential());
    for (size_t parallelism : {size_t{1}, size_t{2}, size_t{8}}) {
      ExecMetrics metrics;
      auto par = db_.Query(q.sparql, Parallel(parallelism), &metrics);
      ASSERT_EQ(par.ok(), seq.ok()) << q.id << " @ parallelism " << parallelism;
      if (!seq.ok()) continue;
      EXPECT_TRUE(BitIdentical(*par, *seq))
          << q.id << " diverges at parallelism " << parallelism;
      if (parallelism > 1) {
        total_morsels += metrics.bgp.morsels;
      } else {
        EXPECT_EQ(metrics.bgp.morsels, 0u);  // parallelism 1 stays sequential
      }
    }
  }
  // A query whose seed fan-out fits one morsel legitimately completes
  // sequentially, but across the whole workload the morsel path must fire.
  EXPECT_GT(total_morsels, 0u);
}

// parallelism = 0 means "all pool workers + 1" and stays bit-identical.
TEST_P(ParallelEngineTest, AutoParallelismMatchesSequential) {
  const PaperQuery* q = FindQuery(LubmPaperQueries(), "q1.1");
  ASSERT_NE(q, nullptr);
  auto seq = db_.Query(q->sparql, Sequential());
  ASSERT_TRUE(seq.ok());
  auto par = db_.Query(q->sparql, Parallel(0));
  ASSERT_TRUE(par.ok());
  EXPECT_TRUE(BitIdentical(*par, *seq));
}

// A deadline expiring mid-evaluation aborts the parallel path cleanly with
// the same reason the sequential path reports.
TEST_P(ParallelEngineTest, DeadlineAbortsParallelEvaluation) {
  CancelToken token =
      CancelToken::WithTimeout(std::chrono::milliseconds(1));
  ExecOptions o = Parallel(8);
  o.cancel = &token;
  ExecMetrics metrics;
  auto r = db_.Query("SELECT * WHERE { ?a ?p ?b . ?c ?q ?d . }", o, &metrics);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(metrics.aborted);
  EXPECT_EQ(metrics.abort_reason, AbortReason::kDeadline);
}

// Explicit cancellation propagates out of morsel workers.
TEST_P(ParallelEngineTest, CancellationAbortsParallelEvaluation) {
  CancelToken token;
  token.RequestCancel();
  ExecOptions o = Parallel(4);
  o.cancel = &token;
  ExecMetrics metrics;
  auto r = db_.Query(LubmPaperQueries()[0].sparql, o, &metrics);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(metrics.aborted);
  EXPECT_EQ(metrics.abort_reason, AbortReason::kCancelled);
}

// --- Service-level pool sharing -----------------------------------------

TEST_P(ParallelEngineTest, ServiceIntraQueryParallelismMatchesSequential) {
  const auto& workload = LubmPaperQueries();
  ExecOptions exec = Sequential();

  std::vector<BindingSet> expected;
  std::vector<bool> expected_ok;
  for (const PaperQuery& q : workload) {
    auto r = db_.Query(q.sparql, exec);
    expected_ok.push_back(r.ok());
    expected.push_back(r.ok() ? std::move(*r) : BindingSet());
  }

  QueryService::Options sopts;
  sopts.num_threads = 4;
  sopts.intra_query_parallelism = 4;
  QueryService service(db_, sopts);

  std::vector<QueryRequest> batch;
  for (const PaperQuery& q : workload) {
    QueryRequest req;
    req.text = q.sparql;
    req.options = exec;
    req.options.parallel.morsel_size = 64;  // force morsels on the test dataset
    batch.push_back(std::move(req));
  }
  std::vector<QueryResponse> responses = service.RunBatch(std::move(batch));

  ASSERT_EQ(responses.size(), workload.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].status.ok(), expected_ok[i])
        << workload[i].id << ": " << responses[i].status.ToString();
    if (responses[i].status.ok()) {
      EXPECT_TRUE(BitIdentical(responses[i].rows, expected[i]))
          << workload[i].id << " diverges under service-side parallelism";
    }
  }
  // Morsel activity is aggregated into the service stats.
  EXPECT_GT(service.Stats().bgp.morsels, 0u);

  // A request can opt out of the service-wide parallelism and force
  // sequential evaluation.
  QueryRequest seq_req;
  seq_req.text = workload[0].sparql;
  seq_req.options = exec;
  seq_req.inherit_parallelism = false;
  QueryResponse seq_resp = service.Submit(std::move(seq_req)).get();
  ASSERT_TRUE(seq_resp.status.ok()) << seq_resp.status.ToString();
  EXPECT_EQ(seq_resp.metrics.bgp.morsels, 0u);
  if (expected_ok[0])
    EXPECT_TRUE(BitIdentical(seq_resp.rows, expected[0]));
}

TEST_P(ParallelEngineTest, TwoServicesShareOneExecutorPool) {
  auto shared = std::make_shared<ExecutorPool>(3);
  QueryService::Options sopts;
  sopts.pool = shared;
  sopts.intra_query_parallelism = 2;
  QueryService s1(db_, sopts);
  QueryService s2(db_, sopts);
  EXPECT_EQ(s1.pool().get(), shared.get());
  EXPECT_EQ(s2.pool().get(), shared.get());
  EXPECT_EQ(s1.num_threads(), 3u);

  const std::string q = LubmPaperQueries()[0].sparql;
  QueryRequest r1{q, ExecOptions::Full(), {}, nullptr};
  QueryRequest r2{q, ExecOptions::Full(), {}, nullptr};
  QueryResponse a = s1.Submit(std::move(r1)).get();
  QueryResponse b = s2.Submit(std::move(r2)).get();
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  ASSERT_TRUE(b.status.ok()) << b.status.ToString();
  EXPECT_TRUE(BitIdentical(a.rows, b.rows));

  s1.Shutdown();  // must not stop the shared pool...
  QueryResponse c = s2.Submit(QueryRequest{q, ExecOptions::Full(), {},
                                           nullptr})
                        .get();
  EXPECT_TRUE(c.status.ok()) << "...which still serves the other service";
}

}  // namespace
}  // namespace sparqluo
