// uobench: the repository benchmark — the paper's UNION/OPTIONAL query
// workload run cold, hot over HTTP, and under writes.
//
//   uobench --workload uo_cold|uo_hot_http|uo_rw --seed N --seconds S
//           [--trace 0|1] [--work-dir DIR]
//
// Prints one JSON report line on stdout: end-to-end metrics (measured with
// tracing off), per-layer metrics (from the traced run, --trace 1), the
// run context, and whether every response matched its reference. Exits 1
// when any response was wrong or any operation failed. README.md in this
// directory describes the workloads and every metric.
#include <sched.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <iostream>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "betree/be_tree.h"
#include "engine/database.h"
#include "http/http_parser.h"
#include "http_client.h"
#include "layers.h"
#include "server/query_service.h"
#include "server/sparql_endpoint.h"
#include "sparql/result_writer.h"
#include "workload/dbpedia_generator.h"
#include "workload/lubm_generator.h"
#include "workload/paper_queries.h"

namespace uobench {
namespace {

using namespace sparqluo;

// Workload shape (README.md explains each choice).
constexpr size_t kLubmUniversities = 13;  // smallest scale where q2.5/q2.6 bind
constexpr size_t kDbpediaArticles = 30000;
constexpr size_t kHttpClients = 4;        // capped at nproc
constexpr size_t kRwReaders = 2;
constexpr size_t kBatchTriples = 100;
constexpr auto kWriterPeriod = std::chrono::milliseconds(200);
constexpr size_t kProbeCommits = 60;      // commit probe on read-only workloads
constexpr size_t kParseReps = 200;        // HTTP request-parser replays per query
constexpr size_t kReplayRounds = 10;      // in-process cached replays per query
constexpr int kSetupReps = 3;             // set-ups per run; setup_s is their median

// Sub-seed streams derived from the workload seed.
enum Stream : uint64_t { kOrderSeed = 1, kWriterSeed };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/uobench-work";
};

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<size_t>(CPU_COUNT(&set));
}

std::string Str(const std::string& s) { return JsonEscape(s); }
std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Data sets, references and the writer's batch
// ---------------------------------------------------------------------------

// The generators keep their default seeds: which data a seed draws decides
// whether lubm/q1.3's OPTIONAL chain binds (15 ms) or not (1.2 s), so a
// per-run data seed would measure the draw instead of the program.
std::unique_ptr<Database> BuildLubm() {
  auto db = std::make_unique<Database>();
  LubmConfig cfg;
  cfg.universities = kLubmUniversities;
  GenerateLubm(cfg, db.get());
  db->Finalize();
  return db;
}

std::unique_ptr<Database> BuildDbpedia() {
  auto db = std::make_unique<Database>();
  DbpediaConfig cfg;
  cfg.articles = kDbpediaArticles;
  GenerateDbpedia(cfg, db.get());
  db->Finalize();
  return db;
}

/// One paper query as the workload issues it.
struct Target {
  std::string id;
  std::string text;
  size_t dataset = 0;   ///< Index into the workload's databases/services.
  BagHash ref[3];       ///< Reference per writer state (see WriterBatch).
  std::string request;  ///< uo_hot_http: the raw GET request.
  uint64_t body_hash = 0;
  uint64_t body_bytes = 0;
};

EngineKind OtherEngine(EngineKind kind) {
  return kind == EngineKind::kHashJoin ? EngineKind::kWco
                                       : EngineKind::kHashJoin;
}

/// Reference fingerprint of `text` on the database's current version,
/// evaluated with the other BGP engine than the one the database serves
/// with, so the reference is planned and joined another way.
Status ReferenceHash(const Database& db, const std::string& text,
                     BagHash* out) {
  std::shared_ptr<const DatabaseVersion> snap = db.Snapshot();
  std::unique_ptr<BgpEngine> engine = MakeEngine(
      OtherEngine(snap->engine_kind), *snap->store, *snap->dict, snap->stats);
  Executor exec(*engine, *snap->dict, *snap->store);
  Result<Query> query = db.Parse(text);
  if (!query.ok()) return query.status();
  Result<BindingSet> rows = exec.Execute(*query, ExecOptions::Full());
  if (!rows.ok()) return rows.status();
  *out = HashBag(*rows, query->vars);
  return Status::OK();
}

/// Computes every target's reference for state `state`; a query that does
/// not bind (zero rows) fails the run, since the paper's anchored queries
/// must select data on every seed.
void ComputeReferences(const std::vector<Database*>& dbs,
                       std::vector<Target>* targets, int state,
                       Report* report) {
  for (Target& t : *targets) {
    Status s = ReferenceHash(*dbs[t.dataset], t.text, &t.ref[state]);
    if (!s.ok()) {
      report->Fail(t.id + ": reference failed: " + s.ToString());
    } else if (t.ref[state].rows == 0) {
      report->Fail(t.id + ": anchored query bound no rows");
    }
  }
}

std::vector<Target> LubmTargets(size_t dataset) {
  std::vector<Target> out;
  for (const PaperQuery& q : LubmPaperQueries())
    out.push_back({"lubm/" + q.id, q.sparql, dataset, {}, "", 0, 0});
  return out;
}

std::vector<Target> DbpediaTargets(size_t dataset) {
  std::vector<Target> out;
  for (const PaperQuery& q : DbpediaPaperQueries())
    out.push_back({"dbpedia/" + q.id, q.sparql, dataset, {}, "", 0, 0});
  return out;
}

/// The writer's commits, over kBatchTriples triples absent from the
/// generated store that link existing LUBM entities through predicates the
/// paper queries read. The triples split into halves A and B, and the
/// writer cycles through three commits: INSERT DATA A, INSERT DATA B,
/// DELETE DATA A and B. State s in {0, 1, 2} is the store after step s - 1
/// (0: as generated, 1: with A, 2: with A and B). Two inserts per delete
/// put the median commit inside one mode: a commit that deletes costs about
/// twice an insert-only one, and an even mix would put the median on the
/// boundary between the two.
struct WriterBatch {
  std::string step[3];
  size_t ntriples_bytes[3] = {};  ///< Each step's triples as N-Triples.
};

WriterBatch MakeBatch(const Database& db, uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&rng](size_t n) {
    return static_cast<size_t>(std::uniform_int_distribution<uint64_t>(0, n - 1)(rng));
  };
  // Index bounds below the generator's minimum population per department,
  // so every named entity exists on every seed.
  auto dept = [](size_t u, size_t d) {
    return "http://www.Department" + std::to_string(d) + ".University" +
           std::to_string(u) + ".edu";
  };
  auto entity = [&dept](size_t u, size_t d, const char* kind, size_t k) {
    return dept(u, d) + "/" + kind + std::to_string(k);
  };
  const std::string ub = kUbPrefix;
  std::shared_ptr<const DatabaseVersion> snap = db.Snapshot();
  std::set<std::tuple<std::string, std::string, std::string>> chosen;
  std::string half[2];
  while (chosen.size() < kBatchTriples) {
    // Half the batch lands in University0, where the anchored queries look.
    size_t u = pick(2) == 0 ? 0 : pick(kLubmUniversities);
    size_t d = pick(15);
    std::string s, p, o;
    switch (pick(5)) {
      case 0:
        s = entity(u, d, "UndergraduateStudent", pick(380));
        p = "takesCourse";
        o = entity(u, d, "Course", pick(30));
        break;
      case 1:
        s = entity(u, d, "GraduateStudent", pick(95));
        p = "advisor";
        o = entity(u, d, "FullProfessor", pick(7));
        break;
      case 2:
        s = entity(u, d, "GraduateStudent", pick(95));
        p = "teachingAssistantOf";
        o = entity(u, d, "Course", pick(30));
        break;
      case 3:
        s = entity(u, d, "AssociateProfessor", pick(10)) + "/Publication0";
        p = "publicationAuthor";
        o = entity(u, d, "GraduateStudent", pick(95));
        break;
      default:
        s = entity(u, d, "UndergraduateStudent", pick(380));
        p = "memberOf";
        o = dept(u, (d + 1 + pick(14)) % 15);
        break;
    }
    Term ts = Term::Iri(s), tp = Term::Iri(ub + p), to = Term::Iri(o);
    TermId is = snap->dict->Lookup(ts), ip = snap->dict->Lookup(tp),
           io = snap->dict->Lookup(to);
    if (is == kInvalidTermId || ip == kInvalidTermId || io == kInvalidTermId)
      continue;
    if (snap->store->Contains(Triple(is, ip, io))) continue;
    if (!chosen.insert({s, p, o}).second) continue;
    half[chosen.size() % 2] +=
        ts.ToString() + " " + tp.ToString() + " " + to.ToString() + " .\n";
  }
  WriterBatch batch;
  batch.step[0] = "INSERT DATA {\n" + half[0] + "}";
  batch.step[1] = "INSERT DATA {\n" + half[1] + "}";
  batch.step[2] = "DELETE DATA {\n" + half[0] + half[1] + "}";
  batch.ntriples_bytes[0] = half[0].size();
  batch.ntriples_bytes[1] = half[1].size();
  batch.ntriples_bytes[2] = half[0].size() + half[1].size();
  return batch;
}

/// Seeded request order: successive shuffled passes over n queries, so
/// each client issues every query equally often.
class Deck {
 public:
  Deck(size_t n, uint64_t seed) : order_(n), rng_(seed) {
    for (size_t i = 0; i < n; ++i) order_[i] = i;
  }
  size_t Next() {
    if (pos_ == order_.size()) pos_ = 0;
    if (pos_ == 0) std::shuffle(order_.begin(), order_.end(), rng_);
    return order_[pos_++];
  }

 private:
  std::vector<size_t> order_;
  std::mt19937_64 rng_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Samples and per-layer accumulation
// ---------------------------------------------------------------------------

struct ReadSample {
  size_t target = 0;
  double ms = 0.0;
  bool traced = false;
  bool ok = false;
  uint64_t version = 0;
  BagHash got;
  std::string error;
};

struct CommitSample {
  double latency_ms = 0.0;  ///< From when the commit was due to completion.
  double lag_ms = 0.0;      ///< How late the writer submitted it.
  double commit_ms = 0.0;   ///< CommitStats::commit_ms.
  double update_ms = 0.0;   ///< UpdateResponse::total_ms.
};

/// Folds traced read responses into the read-side layers.
class ReadLayers {
 public:
  explicit ReadLayers(size_t targets) : kept_(targets) {}

  /// Records one traced response. The first one per target is kept for
  /// TimeJsonWrites, which runs after the window so the client's own
  /// serialization work never sits between timed requests.
  void AddTraced(size_t target, const QueryResponse& r,
                 const Dictionary& dict) {
    std::lock_guard<std::mutex> lock(mu_);
    if (r.trace != nullptr) fold_.Add(*r.trace);
    ++requests_;
    bgp_.Merge(r.metrics.bgp);
    if (!r.plan_cache_hit && !r.result_cache_hit && !r.deduped) {
      ++planned_;
      merges_ += static_cast<double>(r.metrics.transform.merges);
      injects_ += static_cast<double>(r.metrics.transform.injects);
      decide_calls_ += r.metrics.transform.decide_calls;
    }
    Kept& k = kept_[target];
    ++k.requests;
    if (k.plan == nullptr && r.plan != nullptr) {
      k.rows = r.rows;
      k.plan = r.plan;
      k.dict = &dict;
    }
  }

  /// Times StreamingResultWriter on each kept response: the rows
  /// re-serialized into a discarding sink, median of three writes.
  void TimeJsonWrites() {
    for (Kept& k : kept_) {
      if (k.plan == nullptr) continue;
      std::vector<double> ms;
      for (int rep = 0; rep < 3; ++rep) {
        size_t bytes = 0;
        StreamingResultWriter writer(WireFormat::kJson,
                                     [&bytes](std::string_view piece) {
                                       bytes += piece.size();
                                       return true;
                                     });
        Clock::time_point start = Clock::now();
        writer.WriteAll(k.rows, k.plan->query.vars, *k.dict);
        ms.push_back(MsBetween(start, Clock::now()));
        k.json_bytes = static_cast<double>(bytes);
      }
      k.json_ms = Median(ms);
    }
  }

  /// Median JSON write time of one target's rows (after TimeJsonWrites).
  double JsonMs(size_t target) const { return kept_[target].json_ms; }

  void Emit(Report* rep) const {
    const double n = std::max<double>(1.0, static_cast<double>(requests_));
    const double planned = std::max<double>(1.0, static_cast<double>(planned_));
    auto& m = rep->per_layer;
    SpanTotals eval = fold_.Get("eval"), bgp = fold_.Get("bgp"),
               plan = fold_.Get("plan");
    m["sparql.parse_ms"] = {fold_.Get("parse").self_ms / n, "ms"};
    m["optimizer.plan_ms"] = {plan.self_ms / n, "ms"};
    m["optimizer.transform_ms"] = {fold_.Get("transform").dur_ms / n, "ms"};
    m["optimizer.merges"] = {merges_ / planned, "count"};
    m["optimizer.injects"] = {injects_ / planned, "count"};
    m["optimizer.decide_calls"] = {decide_calls_ / planned, "count"};
    m["bgp.eval_ms"] = {bgp.dur_ms / n, "ms"};
    m["bgp.evals"] = {static_cast<double>(bgp.count) / n, "count"};
    m["bgp.rows_materialized"] = {
        static_cast<double>(bgp_.rows_materialized) / n, "count"};
    m["bgp.useful_ratio"] = {
        bgp_.rows_materialized == 0
            ? 0.0
            : static_cast<double>(fold_.bgp_rows_out()) /
                  static_cast<double>(bgp_.rows_materialized),
        "ratio"};
    const double bgp_count = std::max<double>(1.0, static_cast<double>(bgp.count));
    m["bgp.pruned_share"] = {static_cast<double>(fold_.bgp_pruned()) / bgp_count,
                             "ratio"};
    m["bgp.wco_share"] = {static_cast<double>(fold_.bgp_wco()) / bgp_count,
                          "ratio"};
    m["bgp.candidates_pruned"] = {
        static_cast<double>(bgp_.candidates_pruned) / n, "count"};
    m["bgp.morsels"] = {static_cast<double>(bgp_.morsels) / n, "count"};
    m["rdf.index_probes"] = {static_cast<double>(bgp_.index_probes) / n,
                             "count"};
    m["algebra.self_ms"] = {eval.self_ms / n, "ms"};
    m["algebra.unattributed_share"] = {
        eval.dur_ms > 0 ? eval.self_ms / eval.dur_ms : 0.0, "ratio"};
    m["engine.modifiers_ms"] = {fold_.Get("serialize").dur_ms / n, "ms"};
    m["server.queue_wait_ms"] = {fold_.Get("queue_wait").dur_ms / n, "ms"};
    m["server.result_cache.lookup_ms"] = {
        fold_.Get("result_cache_lookup").dur_ms / n, "ms"};
    // Per traced request: each target's write, weighted by its requests.
    double json_ms = 0.0, json_bytes = 0.0;
    for (const Kept& k : kept_) {
      json_ms += static_cast<double>(k.requests) * k.json_ms;
      json_bytes += static_cast<double>(k.requests) * k.json_bytes;
    }
    m["sparql.json_write_ms"] = {json_ms / n, "ms"};
    m["sparql.json_bytes"] = {json_bytes / n, "B"};
    rep->context["traced_requests"] = std::to_string(requests_);
  }

 private:
  mutable std::mutex mu_;
  SpanFold fold_;
  uint64_t requests_ = 0;
  uint64_t planned_ = 0;
  BgpEvalCounters bgp_;
  double merges_ = 0.0, injects_ = 0.0, decide_calls_ = 0.0;
  /// One traced response per target, for the JSON writer timing.
  struct Kept {
    uint64_t requests = 0;
    BindingSet rows;
    std::shared_ptr<const CachedPlan> plan;
    const Dictionary* dict = nullptr;
    double json_ms = 0.0;
    double json_bytes = 0.0;
  };
  std::vector<Kept> kept_;
};

/// q-error of every BGP of every planned tree: max(est/act, act/est), with
/// est = BgpEngine::EstimateCardinality and act = the unpruned BGP's rows
/// (both floored at 1).
void EmitQError(const std::vector<Database*>& dbs,
                const std::vector<Target>& targets, Report* rep) {
  std::vector<double> qerrors;
  for (const Target& t : targets) {
    std::shared_ptr<const DatabaseVersion> snap = dbs[t.dataset]->Snapshot();
    Result<Query> query = dbs[t.dataset]->Parse(t.text);
    if (!query.ok()) continue;
    BeTree tree = snap->executor->Plan(*query, ExecOptions::Full());
    std::vector<const BeNode*> stack{tree.root.get()};
    while (!stack.empty()) {
      const BeNode* node = stack.back();
      stack.pop_back();
      for (const auto& child : node->children) stack.push_back(child.get());
      if (!node->is_bgp()) continue;
      double est = std::max(1.0, snap->engine->EstimateCardinality(node->bgp));
      double act = std::max<double>(
          1.0, static_cast<double>(snap->engine->Evaluate(node->bgp).size()));
      qerrors.push_back(std::max(est / act, act / est));
    }
  }
  rep->per_layer["optimizer.qerror_p50"] = {Median(qerrors), "ratio"};
  double max_q = 0.0;
  for (double q : qerrors) max_q = std::max(max_q, q);
  rep->per_layer["optimizer.qerror_max"] = {max_q, "ratio"};
  rep->context["qerror_bgps"] = std::to_string(qerrors.size());
}

/// Checks one in-process response against the target's reference for
/// `state`; returns the sample with ok/error filled in.
void CheckRead(const QueryResponse& r, const BagHash& want, ReadSample* s) {
  s->version = r.version;
  if (!r.status.ok()) {
    s->error = r.status.ToString();
    return;
  }
  if (r.plan == nullptr) {
    s->error = "response without a plan";
    return;
  }
  s->got = HashBag(r.rows, r.plan->query.vars);
  s->ok = s->got == want;
  if (!s->ok)
    s->error = "wrong result: " + std::to_string(s->got.rows) + " rows, want " +
               std::to_string(want.rows);
}

/// True when commit `step` of the cycle changed exactly its triples.
bool StepApplied(const UpdateResponse& r, size_t step) {
  const size_t half = kBatchTriples / 2;
  return r.status.ok() &&
         (step < 2 ? r.commit.inserted == half && r.commit.deleted == 0
                   : r.commit.inserted == 0 && r.commit.deleted == 2 * half);
}

/// The commit path measured on a read-only workload's store: kProbeCommits
/// back-to-back commits of the writer's cycle, each due when the previous
/// one completed. A whole number of cycles leaves the store as generated.
void ProbeCommits(QueryService& service, const WriterBatch& batch,
                  std::vector<CommitSample>* out, Report* rep) {
  for (size_t k = 0; k < kProbeCommits; ++k) {
    UpdateRequest req;
    req.text = batch.step[k % 3];
    Clock::time_point due = Clock::now();
    UpdateResponse r = service.SubmitUpdate(std::move(req)).get();
    Clock::time_point done = Clock::now();
    ++rep->attempted;
    if (!StepApplied(r, k % 3)) {
      ++rep->failed;
      rep->Fail("probe commit: " + r.status.ToString() + ", changed " +
                std::to_string(r.commit.inserted) + "+" +
                std::to_string(r.commit.deleted));
      continue;
    }
    out->push_back({MsBetween(due, done), 0.0, r.commit.commit_ms, r.total_ms});
  }
}

// ---------------------------------------------------------------------------
// Shared reporting
// ---------------------------------------------------------------------------

/// Everything a workload measured, turned into metrics by Finish.
struct RunData {
  std::vector<double> setup_s;
  std::vector<ReadSample> reads;
  std::vector<double> pass_ms;    ///< uo_cold: one entry per full pass.
  double window_s = 0.0;
  std::vector<CommitSample> commits;
  std::vector<std::string> target_ids;
};

void Finish(const RunData& d, Report* rep) {
  // End-to-end figures come from the untraced reads only.
  std::vector<double> untraced;
  std::map<size_t, std::vector<double>> by_target, traced_by_target;
  size_t ok_reads = 0;
  for (const ReadSample& s : d.reads) {
    ++rep->attempted;
    if (s.ok) {
      ++ok_reads;
    } else {
      ++rep->failed;
      rep->Fail(s.error);
    }
    if (s.traced) {
      traced_by_target[s.target].push_back(s.ms);
    } else {
      untraced.push_back(s.ms);
      by_target[s.target].push_back(s.ms);
    }
  }
  // Concurrent clients interleave their passes, so there a pass is priced
  // as the sum of each query's median latency.
  double pass_ms = 0.0;
  if (!d.pass_ms.empty()) {
    pass_ms = Median(d.pass_ms);
  } else {
    for (const auto& [target, ms] : by_target) pass_ms += Median(ms);
  }
  // The workloads mix 12 or 24 queries evenly, so the pooled median sits
  // on the boundary between two queries' latencies; the median over the
  // queries of each one's median does not.
  std::vector<double> query_medians;
  for (const auto& [target, ms] : by_target) query_medians.push_back(Median(ms));
  auto& e = rep->end_to_end;
  e["setup_s"] = {Median(d.setup_s), "s"};
  e["pass_ms"] = {pass_ms, "ms"};
  e["query_p50_ms"] = {MidMedian(query_medians), "ms"};
  Tail tail = TailOf(untraced);
  e["query_tail_ms"] = {tail.value, "ms"};
  e["qps"] = {d.window_s > 0 ? static_cast<double>(ok_reads) / d.window_s : 0.0,
              "1/s"};
  std::vector<double> commit_lat, commit_ms, update_ms, lag;
  for (const CommitSample& c : d.commits) {
    commit_lat.push_back(c.latency_ms);
    commit_ms.push_back(c.commit_ms);
    update_ms.push_back(c.update_ms);
    lag.push_back(c.lag_ms);
  }
  Tail commit_tail = TailOf(commit_lat);
  e["commit_p50_ms"] = {Median(commit_lat), "ms"};
  e["commit_tail_ms"] = {commit_tail.value, "ms"};
  e["ok_share"] = {rep->attempted == 0
                       ? 0.0
                       : static_cast<double>(rep->attempted - rep->failed) /
                             static_cast<double>(rep->attempted),
                   "ratio"};
  e["peak_rss_mb"] = {PeakRssMb(), "MB"};

  auto& m = rep->per_layer;
  m["store.commit_ms"] = {Median(commit_ms), "ms"};
  m["store.update_ms"] = {Median(update_ms), "ms"};
  m["writer.lag_ms"] = {Median(lag), "ms"};
  // Per-query medians, so an uneven split of the query mix between the
  // traced and untraced halves does not show as overhead.
  double traced_sum = 0.0, untraced_sum = 0.0;
  for (const auto& [target, ms] : traced_by_target) {
    auto it = by_target.find(target);
    if (it == by_target.end()) continue;
    traced_sum += Median(ms);
    untraced_sum += Median(it->second);
  }
  if (untraced_sum > 0)
    m["trace.overhead_share"] = {traced_sum / untraced_sum - 1.0, "ratio"};

  auto& c = rep->context;
  std::string per_query = "{";
  for (const auto& [target, ms] : by_target)
    per_query += (per_query.size() > 1 ? "," : "") +
                 JsonEscape(d.target_ids[target]) + ":" + Num(Median(ms));
  c["query_p50_ms_by_query"] = per_query + "}";
  c["query_tail_percentile"] = Num(tail.percentile);
  c["query_samples"] = std::to_string(tail.samples);
  c["query_samples_beyond_tail"] = std::to_string(tail.beyond);
  c["commit_tail_percentile"] = Num(commit_tail.percentile);
  c["commit_samples"] = std::to_string(commit_tail.samples);
  c["passes"] = std::to_string(d.pass_ms.size());
  c["window_s"] = Num(d.window_s);
  std::string setups = "[";
  for (size_t i = 0; i < d.setup_s.size(); ++i)
    setups += (i > 0 ? "," : "") + Num(d.setup_s[i]);
  c["setup_samples_s"] = setups + "]";
}

/// Defaults of the program, read at runtime so a later change of default
/// shows in the output.
void RecordDefaults(const Database& db, const QueryService& service,
                    Report* rep) {
  QueryService::Options defaults;
  auto& c = rep->context;
  c["engine"] = Str(db.Snapshot()->engine->name());
  c["intra_query_parallelism_default"] =
      std::to_string(defaults.intra_query_parallelism);
  c["pool_workers"] = std::to_string(service.num_threads());
  c["result_cache_budget_bytes"] = std::to_string(defaults.result_cache_bytes);
}

/// Cache and dedup counters of the services over a window.
struct ServiceCounters {
  uint64_t rc_hits = 0, rc_misses = 0, rc_evictions = 0;
  uint64_t pc_hits = 0, pc_misses = 0, pc_evictions = 0;
  uint64_t dedup_followers = 0, commits = 0;
  size_t rc_bytes = 0;

  static ServiceCounters Of(const std::vector<QueryService*>& services) {
    ServiceCounters c;
    for (const QueryService* s : services) {
      ResultCache::Stats rc = s->ResultCacheStats();
      PlanCache::Stats pc = s->CacheStats();
      ServiceStatsSnapshot st = s->Stats();
      c.rc_hits += rc.hits;
      c.rc_misses += rc.misses;
      c.rc_evictions += rc.evictions;
      c.rc_bytes += rc.bytes;
      c.pc_hits += pc.hits;
      c.pc_misses += pc.misses;
      c.pc_evictions += pc.evictions;
      c.dedup_followers += st.dedup_followers;
      c.commits += st.updates_committed;
    }
    return c;
  }
};

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// Server-layer metrics: cache ratios over the read window [a, b], sweep
/// evictions over every commit up to `end`.
void EmitServer(const ServiceCounters& a, const ServiceCounters& b,
                const ServiceCounters& end, Report* rep) {
  auto& m = rep->per_layer;
  m["server.result_cache.hit_ratio"] = {
      Ratio(b.rc_hits - a.rc_hits,
            (b.rc_hits - a.rc_hits) + (b.rc_misses - a.rc_misses)),
      "ratio"};
  m["server.plan_cache.hit_ratio"] = {
      Ratio(b.pc_hits - a.pc_hits,
            (b.pc_hits - a.pc_hits) + (b.pc_misses - a.pc_misses)),
      "ratio"};
  m["server.result_cache.bytes"] = {static_cast<double>(b.rc_bytes), "B"};
  m["server.dedup_followers"] = {
      static_cast<double>(b.dedup_followers - a.dedup_followers), "count"};
  m["server.sweep_evictions_per_commit"] = {
      Ratio((end.rc_evictions - a.rc_evictions) +
                (end.pc_evictions - a.pc_evictions),
            end.commits - a.commits),
      "count"};
  rep->context["result_cache_bytes"] = std::to_string(b.rc_bytes);
}

/// Layers a workload does not exercise report zero work: no log outside
/// uo_rw, no HTTP outside uo_hot_http.
void ZeroAbsentLayers(Report* rep) {
  const std::pair<const char*, const char*> layers[] = {
      {"http.request_parse_us", "us"},  {"http.wire_overhead_ms", "ms"},
      {"store.wal_fsyncs_per_commit", "count"},
      {"store.wal_fsync_ms", "ms"},     {"store.wal_bytes_per_commit", "B"},
      {"store.wal_write_amp", "ratio"}, {"trace.overhead_share", "ratio"}};
  for (const auto& [name, unit] : layers)
    if (rep->per_layer.count(name) == 0) rep->per_layer[name] = {0.0, unit};
}

/// Runs the set-up `reps` times (tearing the previous one down first) and
/// returns each one's wall time in seconds.
template <typename State, typename Build>
std::vector<double> TimedSetups(int reps, std::unique_ptr<State>* state,
                                Build build) {
  std::vector<double> out;
  for (int i = 0; i < reps; ++i) {
    state->reset();
    Clock::time_point start = Clock::now();
    *state = build();
    out.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }
  return out;
}

// ---------------------------------------------------------------------------
// uo_cold: the 24 paper queries, one closed-loop client, no caches
// ---------------------------------------------------------------------------

Report RunCold(const Args& args) {
  Report rep;
  struct State {
    std::unique_ptr<Database> lubm, dbpedia;
    std::unique_ptr<QueryService> lubm_service, dbpedia_service;
  };
  QueryService::Options opts;
  opts.enable_plan_cache = false;
  opts.enable_result_cache = false;
  opts.enable_dedup = false;
  std::unique_ptr<State> st;
  RunData d;
  d.setup_s = TimedSetups(kSetupReps, &st, [&] {
    auto s = std::make_unique<State>();
    s->lubm = BuildLubm();
    s->dbpedia = BuildDbpedia();
    s->lubm_service = std::make_unique<QueryService>(*s->lubm, opts);
    s->dbpedia_service = std::make_unique<QueryService>(*s->dbpedia, opts);
    return s;
  });
  std::vector<Database*> dbs{st->lubm.get(), st->dbpedia.get()};
  std::vector<QueryService*> services{st->lubm_service.get(),
                                      st->dbpedia_service.get()};
  std::vector<Target> targets = LubmTargets(0);
  for (Target& t : DbpediaTargets(1)) targets.push_back(std::move(t));
  ComputeReferences(dbs, &targets, 0, &rep);
  if (!rep.correct) return rep;
  WriterBatch batch = MakeBatch(*st->lubm, SubSeed(args.seed, kWriterSeed));

  ReadLayers layers(targets.size());
  std::mt19937_64 rng(SubSeed(args.seed, kOrderSeed));
  std::vector<size_t> order(targets.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  ServiceCounters before = ServiceCounters::Of(services);
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  // Whole passes only: a pass that starts before the deadline completes.
  for (size_t pass = 0; Clock::now() < deadline; ++pass) {
    std::shuffle(order.begin(), order.end(), rng);
    const bool traced = args.trace && pass % 2 == 1;
    double pass_ms = 0.0;
    for (size_t i : order) {
      const Target& t = targets[i];
      QueryRequest req;
      req.text = t.text;
      if (traced) req.trace = std::make_shared<TraceContext>();
      Clock::time_point t0 = Clock::now();
      QueryResponse r = services[t.dataset]->Submit(std::move(req)).get();
      Clock::time_point t1 = Clock::now();
      ReadSample s;
      s.target = i;
      s.ms = MsBetween(t0, t1);
      s.traced = traced;
      CheckRead(r, t.ref[0], &s);
      if (!s.ok) s.error = t.id + ": " + s.error;
      if (traced && s.ok) layers.AddTraced(i, r, dbs[t.dataset]->dict());
      pass_ms += s.ms;
      d.reads.push_back(std::move(s));
    }
    if (!traced) d.pass_ms.push_back(pass_ms);
  }
  d.window_s = MsBetween(start, Clock::now()) / 1000.0;
  ServiceCounters after = ServiceCounters::Of(services);
  for (const Target& t : targets) d.target_ids.push_back(t.id);
  if (args.trace) {
    layers.TimeJsonWrites();
    layers.Emit(&rep);
    EmitQError(dbs, targets, &rep);
  }
  rep.context["lubm_triples"] = std::to_string(st->lubm->size());
  rep.context["dbpedia_triples"] = std::to_string(st->dbpedia->size());

  ProbeCommits(*st->lubm_service, batch, &d.commits, &rep);
  Finish(d, &rep);
  EmitServer(before, after, ServiceCounters::Of(services), &rep);
  ZeroAbsentLayers(&rep);
  RecordDefaults(*st->lubm, *st->lubm_service, &rep);
  rep.context["dbpedia_articles"] = std::to_string(kDbpediaArticles);
  rep.context["dbpedia_seed"] = std::to_string(DbpediaConfig().seed);
  rep.context["fsync"] = Str("none (no WAL)");
  return rep;
}

// ---------------------------------------------------------------------------
// uo_hot_http: the 12 LUBM queries over HTTP, all caches on
// ---------------------------------------------------------------------------

Report RunHotHttp(const Args& args) {
  Report rep;
  struct State {
    std::unique_ptr<Database> db;
    std::unique_ptr<QueryService> service;
    std::unique_ptr<SparqlEndpoint> endpoint;
  };
  std::unique_ptr<State> st;
  RunData d;
  Status start_status = Status::OK();
  d.setup_s = TimedSetups(kSetupReps, &st, [&] {
    auto s = std::make_unique<State>();
    s->db = BuildLubm();
    s->service = std::make_unique<QueryService>(*s->db, QueryService::Options());
    s->endpoint = std::make_unique<SparqlEndpoint>(*s->service, s->db->dict(),
                                                   SparqlEndpoint::Options());
    Status started = s->endpoint->Start();
    if (!started.ok()) start_status = started;
    return s;
  });
  if (!start_status.ok()) {
    rep.Fail("endpoint start: " + start_status.ToString());
    return rep;
  }
  Database& db = *st->db;
  QueryService& service = *st->service;
  std::vector<Database*> dbs{&db};
  std::vector<Target> targets = LubmTargets(0);
  ComputeReferences(dbs, &targets, 0, &rep);
  if (!rep.correct) return rep;
  // Expected bodies: the server's own rows, checked against the reference,
  // serialized by the same StreamingResultWriter the endpoint uses.
  for (Target& t : targets) {
    t.request = SparqlGetRequest(t.text);
    Result<Query> query = db.Parse(t.text);
    Result<BindingSet> rows = db.Query(t.text);
    if (!query.ok() || !rows.ok() || HashBag(*rows, query->vars) != t.ref[0]) {
      rep.Fail(t.id + ": in-process rows differ from the reference");
      return rep;
    }
    ByteHasher hasher;
    StreamingResultWriter writer(WireFormat::kJson,
                                 [&hasher](std::string_view piece) {
                                   hasher.Update(piece.data(), piece.size());
                                   return true;
                                 });
    writer.WriteAll(*rows, query->vars, db.dict());
    t.body_hash = hasher.Digest();
    t.body_bytes = hasher.bytes();
  }
  WriterBatch batch = MakeBatch(db, SubSeed(args.seed, kWriterSeed));
  const uint16_t port = st->endpoint->port();
  auto check_http = [&targets](size_t i, const HttpClient::Response& r,
                               ReadSample* s) {
    const Target& t = targets[i];
    if (!r.ok) {
      s->error = t.id + ": " + r.error;
    } else if (r.status != 200) {
      s->error = t.id + ": HTTP " + std::to_string(r.status);
    } else if (r.body_hash != t.body_hash || r.body_bytes != t.body_bytes) {
      s->error = t.id + ": body differs (" + std::to_string(r.body_bytes) +
                 " bytes, want " + std::to_string(t.body_bytes) + ")";
    } else {
      s->ok = true;
    }
  };
  // Warm-up off the clock: every query once, filling the result cache.
  {
    HttpClient warm(port);
    for (size_t i = 0; i < targets.size(); ++i) {
      ReadSample s;
      check_http(i, warm.RoundTrip(targets[i].request), &s);
      if (!s.ok) {
        rep.Fail("warm-up: " + s.error);
        return rep;
      }
    }
  }

  const size_t clients = std::min(kHttpClients, Nproc());
  std::vector<std::vector<ReadSample>> per_client(clients);
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start, deadline;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      HttpClient conn(port);
      Deck deck(targets.size(), SubSeed(args.seed, kOrderSeed) + c);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (Clock::now() < deadline) {
        size_t i = deck.Next();
        Clock::time_point t0 = Clock::now();
        HttpClient::Response r = conn.RoundTrip(targets[i].request);
        Clock::time_point t1 = Clock::now();
        ReadSample s;
        s.target = i;
        s.ms = MsBetween(t0, t1);
        check_http(i, r, &s);
        per_client[c].push_back(std::move(s));
        if (!r.ok) break;  // the connection is unusable
      }
    });
  }
  while (ready.load() < clients) std::this_thread::yield();
  ServiceCounters before = ServiceCounters::Of({&service});
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  go.store(true, std::memory_order_release);
  for (auto& th : threads) th.join();
  d.window_s = MsBetween(start, Clock::now()) / 1000.0;
  ServiceCounters after = ServiceCounters::Of({&service});
  for (const Target& t : targets) d.target_ids.push_back(t.id);
  for (auto& samples : per_client)
    for (ReadSample& s : samples) d.reads.push_back(std::move(s));

  if (args.trace) {
    // HTTP request parsing: the exact request bytes through the server's
    // parser.
    std::vector<double> parse_ms;
    for (const Target& t : targets) {
      for (size_t k = 0; k < kParseReps; ++k) {
        HttpRequestParser parser;
        Clock::time_point t0 = Clock::now();
        bool complete = parser.Feed(t.request) == HttpRequestParser::State::kComplete;
        if (complete) parser.TakeRequest();
        parse_ms.push_back(MsBetween(t0, Clock::now()));
        if (!complete) rep.Fail(t.id + ": request did not parse");
      }
    }
    // In-process replay of the same cached queries, alternately traced and
    // untraced, for the server spans and the wire overhead.
    ReadLayers layers(targets.size());
    std::vector<std::vector<double>> inproc(targets.size());
    std::vector<double> traced_ms, untraced_ms;
    for (size_t round = 0; round < kReplayRounds; ++round) {
      for (size_t i = 0; i < targets.size(); ++i) {
        // Alternate which goes first so neither side always follows the
        // other's cache footprint.
        for (int k = 0; k < 2; ++k) {
          const bool traced = (k + round + i) % 2 == 1;
          QueryRequest req;
          req.text = targets[i].text;
          if (traced) req.trace = std::make_shared<TraceContext>();
          Clock::time_point t0 = Clock::now();
          QueryResponse r = service.Submit(std::move(req)).get();
          double ms = MsBetween(t0, Clock::now());
          ReadSample s;
          CheckRead(r, targets[i].ref[0], &s);
          ++rep.attempted;
          if (!s.ok) {
            ++rep.failed;
            rep.Fail(targets[i].id + " (in-process): " + s.error);
            continue;
          }
          if (traced) {
            traced_ms.push_back(ms);
            layers.AddTraced(i, r, db.dict());
          } else {
            untraced_ms.push_back(ms);
            inproc[i].push_back(ms);
          }
        }
      }
    }
    layers.TimeJsonWrites();
    layers.Emit(&rep);
    std::vector<std::vector<double>> client(targets.size());
    for (const ReadSample& s : d.reads)
      if (s.ok) client[s.target].push_back(s.ms);
    std::vector<double> overhead;
    for (size_t i = 0; i < targets.size(); ++i)
      if (!client[i].empty())
        overhead.push_back(Median(client[i]) - Median(inproc[i]) -
                           layers.JsonMs(i));
    rep.per_layer["http.wire_overhead_ms"] = {Mean(overhead), "ms"};
    rep.per_layer["http.request_parse_us"] = {Mean(parse_ms) * 1000.0, "us"};
    rep.per_layer["trace.overhead_share"] = {
        Mean(untraced_ms) > 0 ? Mean(traced_ms) / Mean(untraced_ms) - 1.0 : 0.0,
        "ratio"};
    EmitQError(dbs, targets, &rep);
  }

  rep.context["lubm_triples"] = std::to_string(db.size());
  ProbeCommits(service, batch, &d.commits, &rep);
  Finish(d, &rep);
  EmitServer(before, after, ServiceCounters::Of({&service}), &rep);
  ZeroAbsentLayers(&rep);
  RecordDefaults(db, service, &rep);
  rep.context["http_clients"] = std::to_string(clients);
  rep.context["fsync"] = Str("none (no WAL)");
  st->endpoint->Stop();
  return rep;
}

// ---------------------------------------------------------------------------
// uo_rw: two closed-loop readers, one open-loop writer, WAL fsync=always
// ---------------------------------------------------------------------------

Report RunRw(const Args& args) {
  Report rep;
  namespace fs = std::filesystem;
  const fs::path wal_dir =
      fs::path(args.work_dir) / ("wal-" + std::to_string(::getpid()));
  struct State {
    CountingFileOps ops;  // outlives the database's WAL
    std::unique_ptr<Database> db;
    std::unique_ptr<QueryService> service;
  };
  std::unique_ptr<State> st;
  RunData d;
  Status wal_status = Status::OK();
  d.setup_s = TimedSetups(kSetupReps, &st, [&] {
    std::error_code ec;
    fs::remove_all(wal_dir, ec);
    fs::create_directories(wal_dir, ec);
    auto s = std::make_unique<State>();
    s->db = BuildLubm();
    Wal::Options wopts;
    wopts.fsync = FsyncPolicy::kAlways;
    wopts.ops = &s->ops;
    Result<WalRecoveryInfo> opened = s->db->OpenWal(wal_dir.string(), wopts);
    if (!opened.ok()) wal_status = opened.status();
    s->service = std::make_unique<QueryService>(*s->db, QueryService::Options());
    return s;
  });
  auto cleanup = [&] {
    st.reset();
    std::error_code ec;
    fs::remove_all(wal_dir, ec);
  };
  if (!wal_status.ok()) {
    rep.Fail("OpenWal: " + wal_status.ToString());
    cleanup();
    return rep;
  }
  Database& db = *st->db;
  QueryService& service = *st->service;
  std::vector<Database*> dbs{&db};
  std::vector<Target> targets = LubmTargets(0);
  rep.context["lubm_triples"] = std::to_string(db.size());
  WriterBatch batch = MakeBatch(db, SubSeed(args.seed, kWriterSeed));
  // References for the three states the writer cycles through, visiting
  // each by running the cycle once.
  for (size_t step = 0; step < 3 && rep.correct; ++step) {
    ComputeReferences(dbs, &targets, static_cast<int>(step), &rep);
    if (!StepApplied(service.SubmitUpdate({batch.step[step], {}, {}}).get(),
                     step))
      rep.Fail("writer step " + std::to_string(step) + " failed");
  }
  if (!rep.correct) {
    cleanup();
    return rep;
  }
  const uint64_t base_version = db.version();
  if (args.trace) EmitQError(dbs, targets, &rep);

  ReadLayers layers(targets.size());
  std::vector<std::vector<ReadSample>> per_reader(kRwReaders);
  const size_t max_commits =
      static_cast<size_t>(args.seconds * 1000.0 / kWriterPeriod.count()) + 1;
  std::vector<Clock::time_point> due(max_commits), submitted(max_commits),
      done(max_commits);
  std::vector<std::future<UpdateResponse>> futures;
  ServiceCounters before = ServiceCounters::Of({&service});
  CountingFileOps::Counts wal_before = st->ops.Get();
  Clock::time_point start = Clock::now();
  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));
  std::vector<std::thread> readers;
  for (size_t c = 0; c < kRwReaders; ++c) {
    readers.emplace_back([&, c] {
      Deck deck(targets.size(), SubSeed(args.seed, kOrderSeed) + c);
      for (size_t n = 0; Clock::now() < deadline; ++n) {
        size_t i = deck.Next();
        const bool traced = args.trace && n % 2 == 1;
        QueryRequest req;
        req.text = targets[i].text;
        if (traced) req.trace = std::make_shared<TraceContext>();
        Clock::time_point t0 = Clock::now();
        QueryResponse r = service.Submit(std::move(req)).get();
        ReadSample s;
        s.target = i;
        s.ms = MsBetween(t0, Clock::now());
        s.traced = traced;
        s.version = r.version;
        if (r.status.ok() && r.plan != nullptr) {
          s.ok = true;  // provisional: checked against its version below
          s.got = HashBag(r.rows, r.plan->query.vars);
          if (traced) layers.AddTraced(i, r, db.dict());
        } else {
          s.error = targets[i].id + ": " + r.status.ToString();
        }
        per_reader[c].push_back(std::move(s));
      }
    });
  }
  // Open-loop writer: commit k is due at start + k * period and runs step
  // k % 3 of the cycle. A commit still running at the next due time holds
  // that one back (the lag counts in its latency), so commits publish in
  // cycle order.
  for (size_t k = 0; k < max_commits; ++k) {
    due[k] = start + static_cast<int64_t>(k) * kWriterPeriod;
    if (due[k] >= deadline) break;
    std::this_thread::sleep_until(due[k]);
    if (k > 0) futures[k - 1].wait();
    UpdateRequest req;
    req.text = batch.step[k % 3];
    Clock::time_point* done_at = &done[k];
    req.on_complete = [done_at](const UpdateResponse&) {
      *done_at = Clock::now();
    };
    submitted[k] = Clock::now();
    futures.push_back(service.SubmitUpdate(std::move(req)));
  }
  for (auto& th : readers) th.join();
  std::vector<UpdateResponse> updates;
  for (auto& f : futures) updates.push_back(f.get());
  d.window_s = MsBetween(start, Clock::now()) / 1000.0;
  ServiceCounters after = ServiceCounters::Of({&service});
  CountingFileOps::Counts wal_after = st->ops.Get();

  // Which state each published version holds.
  std::unordered_map<uint64_t, int> state_of{{base_version, 0}};
  double committed_ntriples = 0.0;
  for (size_t k = 0; k < updates.size(); ++k) {
    const UpdateResponse& u = updates[k];
    ++rep.attempted;
    if (!StepApplied(u, k % 3)) {
      ++rep.failed;
      rep.Fail("commit " + std::to_string(k) + ": " + u.status.ToString() +
               ", changed " + std::to_string(u.commit.inserted) + "+" +
               std::to_string(u.commit.deleted) + " triples");
      continue;
    }
    state_of[u.commit.version] = static_cast<int>((k + 1) % 3);
    committed_ntriples += static_cast<double>(batch.ntriples_bytes[k % 3]);
    d.commits.push_back({MsBetween(due[k], done[k]),
                         MsBetween(due[k], submitted[k]), u.commit.commit_ms,
                         u.total_ms});
  }
  for (const Target& t : targets) d.target_ids.push_back(t.id);
  for (auto& samples : per_reader) {
    for (ReadSample& s : samples) {
      if (s.ok) {
        auto it = state_of.find(s.version);
        const Target& t = targets[s.target];
        if (it == state_of.end()) {
          s.ok = false;
          s.error = t.id + ": version " + std::to_string(s.version) +
                    " was never published";
        } else if (s.got != t.ref[it->second]) {
          s.ok = false;
          s.error = t.id + ": wrong result at version " +
                    std::to_string(s.version);
        }
      }
      d.reads.push_back(std::move(s));
    }
  }
  Finish(d, &rep);
  EmitServer(before, after, after, &rep);
  if (args.trace) {
    layers.TimeJsonWrites();
    layers.Emit(&rep);
  }
  const double commits = std::max<double>(1.0, static_cast<double>(d.commits.size()));
  const double wal_bytes = static_cast<double>(wal_after.bytes - wal_before.bytes);
  const double fsyncs = static_cast<double>(wal_after.fsyncs - wal_before.fsyncs);
  auto& m = rep.per_layer;
  m["store.wal_fsyncs_per_commit"] = {fsyncs / commits, "count"};
  m["store.wal_fsync_ms"] = {
      fsyncs > 0 ? (wal_after.fsync_ms - wal_before.fsync_ms) / fsyncs : 0.0,
      "ms"};
  m["store.wal_bytes_per_commit"] = {wal_bytes / commits, "B"};
  m["store.wal_write_amp"] = {
      committed_ntriples > 0 ? wal_bytes / committed_ntriples : 0.0, "ratio"};
  ZeroAbsentLayers(&rep);
  RecordDefaults(db, service, &rep);
  rep.context["fsync"] = Str("always");
  rep.context["wal_writes"] = std::to_string(wal_after.writes - wal_before.writes);
  rep.context["readers"] = std::to_string(kRwReaders);
  rep.context["batch_triples"] = std::to_string(kBatchTriples);
  cleanup();
  return rep;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << a << "\n";
      return 2;
    }
    std::string v = argv[++i];
    if (a == "--workload") args.workload = v;
    else if (a == "--seed") args.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (a == "--seconds") args.seconds = std::atof(v.c_str());
    else if (a == "--trace") args.trace = v == "1";
    else if (a == "--work-dir") args.work_dir = v;
    else {
      std::cerr << "unknown argument " << a << "\n";
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::cerr << "--seconds must be positive\n";
    return 2;
  }
  Report rep;
  if (args.workload == "uo_cold") rep = RunCold(args);
  else if (args.workload == "uo_hot_http") rep = RunHotHttp(args);
  else if (args.workload == "uo_rw") rep = RunRw(args);
  else {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  if (rep.failed > 0) rep.correct = false;
  auto& c = rep.context;
  c["workload"] = Str(args.workload);
  c["seed"] = std::to_string(args.seed);
  c["seconds"] = Num(args.seconds);
  c["trace"] = args.trace ? "true" : "false";
  c["nproc"] = std::to_string(Nproc());
  c["hardware_threads"] = std::to_string(std::thread::hardware_concurrency());
  c["lubm_universities"] = std::to_string(kLubmUniversities);
  c["lubm_seed"] = std::to_string(LubmConfig().seed);
  c["setup_reps"] = std::to_string(kSetupReps);
  std::cout << RenderReport(rep) << std::endl;
  return rep.correct ? 0 : 1;
}

}  // namespace
}  // namespace uobench

int main(int argc, char** argv) { return uobench::Main(argc, argv); }
