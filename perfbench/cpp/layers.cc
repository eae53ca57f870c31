#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "blocking/candidate_stream.h"
#include "core/tokenized_record.h"
#include "explain/report.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

using wym::core::WymModel;
using wym::data::Dataset;

namespace {

using LayerMetrics = std::map<std::string, double>;

// Records pushed through the staged (one call per layer) pass, and
// through the two ExplainBatch passes of workloads other than
// explain-batch.
constexpr size_t kStagedRecords = 1500;
constexpr size_t kSampleRecords = 3000;
// Records whose staged probability must equal PredictProba bit for bit.
constexpr size_t kStagedCheckRecords = 64;

/// Growth of the obs registry since construction.
class RegistryDelta {
 public:
  RegistryDelta() : base_(wym::obs::Registry::Global().Snapshot()) {}

  uint64_t Counter(const std::string& name) const {
    return Find(wym::obs::Registry::Global().Snapshot().counters, name) -
           Find(base_.counters, name);
  }

  wym::obs::HistogramSnapshot Histogram(const std::string& name) const {
    const wym::obs::HistogramSnapshot now =
        FindHist(wym::obs::Registry::Global().Snapshot(), name);
    return now.DeltaSince(FindHist(base_, name));
  }

 private:
  static uint64_t Find(const std::vector<wym::obs::MetricsSnapshot::CounterEntry>& entries,
                       const std::string& name) {
    for (const auto& entry : entries) {
      if (entry.name == name) return entry.value;
    }
    return 0;
  }
  static wym::obs::HistogramSnapshot FindHist(const wym::obs::MetricsSnapshot& snapshot,
                                              const std::string& name) {
    for (const auto& entry : snapshot.histograms) {
      if (entry.name == name) return entry.hist;
    }
    wym::obs::HistogramSnapshot empty;
    empty.buckets.assign(wym::obs::Histogram::kBuckets, 0);
    return empty;
  }

  wym::obs::MetricsSnapshot base_;
};

void AddPoolStats(const RegistryDelta& delta, LayerMetrics* out) {
  const auto wait = delta.Histogram("pool.task_wait_ns");
  const auto run = delta.Histogram("pool.task_run_ns");
  (*out)["util.pool.wait_us.p50"] = wait.Percentile(0.50) / 1e3;
  (*out)["util.pool.wait_us.p99"] = wait.Percentile(0.99) / 1e3;
  (*out)["util.pool.run_us.p50"] = run.Percentile(0.50) / 1e3;
  (*out)["util.pool.run_us.p99"] = run.Percentile(0.99) / 1e3;
}

double Us(uint64_t ns, size_t per) {
  return per == 0 ? 0.0 : static_cast<double>(ns) / 1e3 / static_cast<double>(per);
}

/// One record at a time, one call per layer, each inside its own span
/// under a per-record span. The recomposition must reproduce the
/// library's own probabilities, which the first records check.
void StagedPass(const WymModel& model, const Dataset& records, SpanRecorder* spans,
                LayerMetrics* out) {
  const wym::text::Tokenizer tokenizer(model.config().tokenizer);
  wym::data::Schema schema;
  schema.attributes.resize(model.num_attributes());
  const size_t n = std::min(records.size(), kStagedRecords);
  const RegistryDelta kernels;
  size_t tokens = 0, units = 0, paired = 0, predicted = 0;
  for (size_t i = 0; i < n; ++i) {
    const wym::data::EmRecord& record = records.records[i];
    ScopedSpan record_span(spans, "record");
    wym::core::TokenizedRecord tokenized;
    {
      ScopedSpan span(spans, "text.tokenize");
      tokenized = wym::core::TokenizeRecord(record, schema, tokenizer);
    }
    {
      ScopedSpan span(spans, "embedding.encode");
      wym::core::EncodeEntity(model.encoder(), &tokenized.left);
      wym::core::EncodeEntity(model.encoder(), &tokenized.right);
    }
    tokens += tokenized.left.size() + tokenized.right.size();
    if (tokenized.left.size() + tokenized.right.size() == 0) continue;
    ++predicted;
    wym::core::ScoredUnitSet set;
    {
      ScopedSpan span(spans, "core.units");
      set.units = model.GenerateUnits(tokenized);
    }
    {
      ScopedSpan span(spans, "core.score");
      set.scores = model.ScoreUnits(tokenized, set.units);
    }
    double probability = 0.0;
    {
      ScopedSpan span(spans, "ml.classify");
      probability = model.PredictProbaFromUnits(set);
    }
    std::vector<double> impacts;
    {
      ScopedSpan span(spans, "core.impacts");
      impacts = model.matcher().UnitImpacts(set);
    }
    {
      ScopedSpan span(spans, "explain.render");
      wym::core::Explanation explanation;
      explanation.probability = probability;
      explanation.prediction = probability >= 0.5 ? 1 : 0;
      for (size_t u = 0; u < set.size(); ++u) {
        explanation.units.push_back({set.units[u], set.scores[u], impacts[u]});
      }
      const std::string json = wym::explain::ExplanationToJson(explanation);
      if (json.empty()) Fail("empty explanation JSON");
    }
    units += set.size();
    for (const auto& unit : set.units) paired += unit.paired ? 1 : 0;
    if (i < kStagedCheckRecords) {
      const double library = model.PredictProba(record);
      if (std::memcmp(&library, &probability, sizeof(double)) != 0) {
        Fail("staged pipeline disagrees with PredictProba on record " +
             std::to_string(i));
      }
    }
  }
  // The stage span names occur only in this pass.
  std::map<std::string, uint64_t> self_ns;
  for (const auto& [name, layer] : spans->SelfTimes()) self_ns[name] = layer.self_ns;
  (*out)["text.tokenize_us"] = Us(self_ns["text.tokenize"], n);
  (*out)["embedding.encode_us"] = Us(self_ns["embedding.encode"], n);
  (*out)["embedding.tokens_per_rec"] = n == 0 ? 0.0 : static_cast<double>(tokens) / n;
  (*out)["core.units_us"] = Us(self_ns["core.units"], predicted);
  (*out)["core.units_per_rec"] =
      predicted == 0 ? 0.0 : static_cast<double>(units) / predicted;
  (*out)["core.paired_share"] = units == 0 ? 0.0 : static_cast<double>(paired) / units;
  (*out)["core.score_us"] = Us(self_ns["core.score"], predicted);
  (*out)["core.score_ns_per_unit"] =
      units == 0 ? 0.0 : static_cast<double>(self_ns["core.score"]) / units;
  (*out)["ml.classify_us"] = Us(self_ns["ml.classify"], predicted);
  (*out)["core.impacts_us"] = Us(self_ns["core.impacts"], predicted);
  (*out)["explain.render_us"] = Us(self_ns["explain.render"], predicted);
  (*out)["la.simmat_i8_calls"] =
      static_cast<double>(kernels.Counter("kernels.similarity_matrix_i8_calls")) /
      std::max<size_t>(predicted, 1);
  (*out)["la.simmat_fp_calls"] =
      static_cast<double>(kernels.Counter("kernels.similarity_matrix_calls")) /
      std::max<size_t>(predicted, 1);
  (*out)["staged.records"] = static_cast<double>(n);
}

struct BlockingResult {
  std::vector<wym::blocking::TableMatch> matches;
  double run_s = 0.0;
};

/// MatchTables recomposed from CandidateStream::Prepare/Next and
/// PredictProbaBatch, with a span around each call: the traced form of
/// match-tables, and the blocking probe of the other workloads (which
/// stop after the stream when `score` is false).
BlockingResult TracedMatch(const WymModel& model, const TablePair& tables, bool score,
                           wym::util::ThreadPool* pool, SpanRecorder* spans,
                           LayerMetrics* out) {
  const RegistryDelta delta;
  wym::blocking::CandidateStreamOptions options;
  options.encoder = &model.encoder();
  const wym::blocking::MatchTablesOptions match_options;
  BlockingResult result;
  uint64_t build_ns = 0, probe_ns = 0, predict_ns = 0;
  size_t candidates = 0, true_candidates = 0;
  const uint64_t start = NowNs();
  {
    ScopedSpan root(spans, score ? "match_tables" : "blocking_probe");
    wym::blocking::CandidateStream stream(tables.left, tables.right, options, pool);
    {
      const uint64_t t0 = NowNs();
      ScopedSpan span(spans, "blocking.build");
      stream.Prepare();
      build_ns = NowNs() - t0;
    }
    std::vector<wym::blocking::CandidatePair> chunk, pending;
    const auto flush = [&](size_t count) {
      std::vector<wym::data::EmRecord> records(count);
      for (size_t i = 0; i < count; ++i) {
        records[i].left = tables.left.rows[pending[i].left_row];
        records[i].right = tables.right.rows[pending[i].right_row];
      }
      const uint64_t t0 = NowNs();
      std::vector<double> probas;
      {
        ScopedSpan span(spans, "core.predict_batch");
        probas = model.PredictProbaBatch(records, nullptr, pool);
      }
      predict_ns += NowNs() - t0;
      for (size_t i = 0; i < count; ++i) {
        if (probas[i] < match_options.min_probability) continue;
        result.matches.push_back({pending[i].left_row, pending[i].right_row,
                                  probas[i], pending[i].score});
      }
      pending.erase(pending.begin(), pending.begin() + static_cast<long>(count));
    };
    while (true) {
      const uint64_t t0 = NowNs();
      bool more = false;
      {
        ScopedSpan span(spans, "blocking.next");
        more = stream.Next(&chunk);
      }
      probe_ns += NowNs() - t0;
      if (!more) break;
      candidates += chunk.size();
      for (const auto& pair : chunk) {
        true_candidates += tables.truth.count({pair.left_row, pair.right_row});
      }
      if (!score) continue;
      pending.insert(pending.end(), chunk.begin(), chunk.end());
      while (pending.size() >= match_options.batch_candidates) {
        flush(match_options.batch_candidates);
      }
    }
    if (!pending.empty()) flush(pending.size());
  }
  result.run_s = NsToSeconds(NowNs() - start);
  (*out)["blocking.build_s"] = NsToSeconds(build_ns);
  (*out)["blocking.probe_s"] = NsToSeconds(probe_ns);
  (*out)["blocking.candidates_per_row"] =
      static_cast<double>(candidates) / std::max<size_t>(tables.left.size(), 1);
  (*out)["blocking.recall"] =
      static_cast<double>(true_candidates) / std::max<size_t>(tables.truth.size(), 1);
  (*out)["blocking.precision"] =
      static_cast<double>(true_candidates) / std::max<size_t>(candidates, 1);
  (*out)["blocking.pairs_pruned"] =
      static_cast<double>(delta.Counter("blocking.pairs_pruned"));
  (*out)["blocking.exact_dupes"] =
      static_cast<double>(delta.Counter("blocking.exact_dupes"));
  if (score) {
    (*out)["core.predict_s"] = NsToSeconds(predict_ns);
    AddPoolStats(delta, out);
  }
  return result;
}

/// Two ExplainBatch passes over the same records in this process: the
/// first pays the warm-up, the second runs warm.
void ExplainPasses(const WymModel& model, const Dataset& records, bool pool_stats,
                   wym::util::ThreadPool* pool, SpanRecorder* spans,
                   LayerMetrics* out) {
  for (int pass = 1; pass <= 2; ++pass) {
    const RegistryDelta delta;
    const uint64_t t0 = NowNs();
    {
      ScopedSpan span(spans, "core.explain_batch");
      model.ExplainBatch(records, nullptr, pool);
    }
    const double seconds = NsToSeconds(NowNs() - t0);
    if (pass == 1) {
      (*out)["core.explain_batch.first_pass_s"] = seconds;
      (*out)["traced.explain_rec_per_s"] = static_cast<double>(records.size()) / seconds;
      if (pool_stats) AddPoolStats(delta, out);
    } else {
      (*out)["core.explain_batch.second_pass_s"] = seconds;
    }
  }
}

Dataset Head(const Dataset& records, size_t n) {
  Dataset out;
  out.name = records.name;
  out.schema = records.schema;
  out.records.assign(records.records.begin(),
                     records.records.begin() +
                         static_cast<long>(std::min(n, records.size())));
  return out;
}

}  // namespace

void PrintSelfTimes(const SpanRecorder& spans, const std::string& title) {
  std::fprintf(stderr, "%s\n  %-28s %10s %14s %14s\n", title.c_str(), "span", "count",
               "total_ms", "self_ms");
  for (const auto& [name, layer] : spans.SelfTimes()) {
    std::fprintf(stderr, "  %-28s %10llu %14.3f %14.3f\n", name.c_str(),
                 static_cast<unsigned long long>(layer.count), layer.total_ns / 1e6,
                 layer.self_ns / 1e6);
  }
}

int RunTrace(const Args& args) {
  const std::string workload = args.Require("workload");
  const uint64_t seed = args.GetUint("seed", 1);
  wym::util::ThreadPool pool(args.GetUint("threads", 1));
  SpanRecorder spans;
  LayerMetrics metrics;

  const WymModel model = LoadModelOrDie(args.Require("model"));

  // The workload's own timed phase, traced.
  const Dataset records = WorkloadRecords(workload, seed, model);
  const Dataset sample = Head(records, kSampleRecords);
  // Pool statistics come from the phase that loads the pool most:
  // MatchTables on match-tables, the first ExplainBatch elsewhere.
  const bool pool_stats = workload != kMatchTables;
  ExplainPasses(model, workload == kExplainBatch ? records : sample, pool_stats, &pool,
                &spans, &metrics);
  const TablePair tables = WorkloadTables(workload, seed, records);
  if (workload == kMatchTables) {
    const BlockingResult match = TracedMatch(model, tables, /*score=*/true, &pool,
                                             &spans, &metrics);
    metrics["traced.match_rows_per_s"] =
        static_cast<double>(tables.left.size()) / match.run_s;
    const Digest digest = DigestMatches(match.matches, tables.left.size());
    std::printf("%s\n",
                JsonLine().Str("phase", "trace-digest").Str("digest", digest.Hex()).Render().c_str());
  } else {
    TracedMatch(model, tables, /*score=*/false, &pool, &spans, &metrics);
    const uint64_t p0 = NowNs();
    {
      ScopedSpan span(&spans, "core.predict_batch");
      model.PredictProbaBatch(sample, nullptr, &pool);
    }
    metrics["core.predict_s"] = NsToSeconds(NowNs() - p0);
  }

  // The layer probe: every stage of the pipeline, one call at a time.
  StagedPass(model, records, &spans, &metrics);
  metrics["embedding.token_cache_evictions"] =
      static_cast<double>(model.encoder().token_cache_evictions());

  const std::string spans_path = args.Get("spans", "");
  if (!spans_path.empty() && !spans.WriteJsonl(spans_path)) {
    Fail("cannot write " + spans_path);
  }
  PrintSelfTimes(spans, "in-process spans (" + workload + ")");
  JsonLine out;
  out.Str("phase", "trace");
  for (const auto& [name, value] : metrics) out.Num(name, value);
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

}  // namespace perfbench
