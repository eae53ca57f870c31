#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>

#include "blocking/candidate_stream.h"
#include "data/benchmark_gen.h"
#include "data/catalog.h"
#include "data/corruption.h"
#include "data/split.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {

using wym::core::WymModel;
using wym::data::Dataset;
using wym::data::EmRecord;

namespace {

// explain-batch: a T-AB model trained on the paper-sized split, then a
// held-out batch several times larger than the training set.
constexpr size_t kExplainTrain = 780;
constexpr size_t kExplainValidation = 260;
constexpr size_t kExplainBatchRecords = 6000;
// Records of the batch whose digest is recomputed at one thread.
constexpr size_t kExplainCheckPrefix = 512;

// match-tables: catalog sizes of the matched and the training tables,
// and the labelled-candidate sample the model trains on.
constexpr size_t kMatchCatalog = 4000;
constexpr size_t kMatchTrainCatalog = 900;
constexpr size_t kMatchTrainPositives = 400;
constexpr size_t kMatchTrainNegatives = 800;
// Left rows re-matched at one thread for the determinism check.
constexpr size_t kMatchCheckRows = 400;

// Seed of every workload's training data.
constexpr uint64_t kTrainingSeed = 0x7EA1;

// serve-mixed: an S-WA model at its default size, and a pool of
// distinct short product pairs to draw requests from.
constexpr double kServePoolScale = 24.0;
// Tables of the blocking probe built from a workload's records.
constexpr size_t kProbeTableRows = 4000;

/// T-AB records cut into the training, validation and batch parts.
wym::data::Split ExplainSplit(uint64_t seed) {
  const size_t total = kExplainTrain + kExplainValidation + kExplainBatchRecords;
  const double scale = static_cast<double>(total) /
                       static_cast<double>(wym::data::FindSpec("T-AB")->default_size);
  const Dataset dataset = wym::data::GenerateById("T-AB", seed, scale);
  const double n = static_cast<double>(dataset.size());
  return wym::data::TrainValTestSplit(dataset, static_cast<double>(kExplainTrain) / n,
                                      static_cast<double>(kExplainValidation) / n,
                                      seed ^ 0x5EED);
}

wym::data::CorruptionProfile LeftSourceProfile() {
  wym::data::CorruptionProfile p;
  p.typo = 0.01;
  p.drop_token = 0.04;
  p.abbreviate = 0.08;
  p.reorder = 0.05;
  p.value_missing = 0.02;
  p.numeric_jitter = 0.05;
  p.synonym = 0.05;
  return p;
}

wym::data::CorruptionProfile RightSourceProfile() {
  wym::data::CorruptionProfile p;
  p.typo = 0.03;
  p.drop_token = 0.08;
  p.abbreviate = 0.15;
  p.reorder = 0.15;
  p.value_missing = 0.05;
  p.numeric_jitter = 0.12;
  p.synonym = 0.12;
  p.duplicate_token = 0.02;
  return p;
}

/// Two sources over one product catalog: a quarter of the entities get
/// a confusable sibling, each source holds ~80% of the catalog under
/// its own corruption, and rows are shuffled per source.
TablePair MakeProductTables(uint64_t seed, size_t catalog_size) {
  using wym::data::Domain;
  wym::Rng rng(seed);
  const wym::data::Schema schema = wym::data::DomainSchema(Domain::kProduct);
  std::vector<wym::data::CatalogEntity> catalog =
      wym::data::GenerateCatalog(Domain::kProduct, catalog_size, &rng);
  const size_t base = catalog.size();
  for (size_t i = 0; i < base; ++i) {
    if (rng.Bernoulli(0.25)) {
      catalog.push_back(wym::data::MakeSibling(Domain::kProduct, catalog[i], &rng));
    }
  }
  const auto left_profile = LeftSourceProfile();
  const auto right_profile = RightSourceProfile();
  std::vector<std::pair<size_t, wym::data::Entity>> left, right;
  for (size_t id = 0; id < catalog.size(); ++id) {
    wym::data::Entity entity;
    entity.values = catalog[id].values;
    if (rng.Bernoulli(0.8)) {
      left.emplace_back(id, wym::data::CorruptEntity(entity, schema, left_profile, &rng));
    }
    if (rng.Bernoulli(0.8)) {
      right.emplace_back(id, wym::data::CorruptEntity(entity, schema, right_profile, &rng));
    }
  }
  rng.Shuffle(&left);
  rng.Shuffle(&right);

  TablePair tables;
  tables.left.schema = schema;
  tables.right.schema = schema;
  std::map<size_t, size_t> right_row_of;
  for (size_t r = 0; r < right.size(); ++r) {
    right_row_of[right[r].first] = r;
    tables.right.rows.push_back(std::move(right[r].second));
  }
  for (size_t l = 0; l < left.size(); ++l) {
    auto it = right_row_of.find(left[l].first);
    if (it != right_row_of.end()) tables.truth.insert({l, it->second});
    tables.left.rows.push_back(std::move(left[l].second));
  }
  return tables;
}

/// Candidates of `tables` as labelled records, in stream order.
Dataset CandidateRecords(const TablePair& tables,
                         const wym::embedding::SemanticEncoder* encoder) {
  wym::blocking::CandidateStreamOptions options;
  options.encoder = encoder;
  wym::blocking::CandidateStream stream(tables.left, tables.right, options);
  Dataset out;
  out.name = "candidates";
  out.schema = tables.left.schema;
  for (const auto& pair : stream.Drain()) {
    EmRecord record;
    record.left = tables.left.rows[pair.left_row];
    record.right = tables.right.rows[pair.right_row];
    record.label = tables.truth.count({pair.left_row, pair.right_row}) ? 1 : 0;
    out.records.push_back(std::move(record));
  }
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

}  // namespace

Digest DigestMatches(std::vector<wym::blocking::TableMatch> matches, size_t left_rows) {
  std::sort(matches.begin(), matches.end(), [](const auto& a, const auto& b) {
    return a.left_row != b.left_row ? a.left_row < b.left_row
                                    : a.right_row < b.right_row;
  });
  Digest digest;
  for (const auto& match : matches) {
    if (match.left_row >= left_rows) continue;
    digest.Add(static_cast<uint64_t>(match.left_row));
    digest.Add(static_cast<uint64_t>(match.right_row));
    digest.Add(match.probability);
    digest.Add(match.blocking_score);
  }
  return digest;
}

bool IsWorkload(const std::string& name) {
  return name == kExplainBatch || name == kMatchTables || name == kServeMixed;
}

double F1Score(size_t true_positives, size_t predicted, size_t actual) {
  if (true_positives == 0) return 0.0;
  const double precision = static_cast<double>(true_positives) / static_cast<double>(predicted);
  const double recall = static_cast<double>(true_positives) / static_cast<double>(actual);
  return 2.0 * precision * recall / (precision + recall);
}

wym::data::Split MakeTrainingData(const std::string& workload) {
  const uint64_t seed = kTrainingSeed;
  if (workload == kExplainBatch) return ExplainSplit(seed);
  if (workload == kMatchTables) {
    // A separate, smaller catalog draw, blocked with the token stage
    // (the encoder is not trained yet) and labelled from ground truth.
    const TablePair tables = MakeProductTables(seed ^ 0x7A11, kMatchTrainCatalog);
    const Dataset candidates = CandidateRecords(tables, nullptr);
    std::vector<size_t> positives, negatives;
    for (size_t i = 0; i < candidates.size(); ++i) {
      (candidates.records[i].label == 1 ? positives : negatives).push_back(i);
    }
    wym::Rng rng(seed ^ 0x5A3B);
    rng.Shuffle(&positives);
    rng.Shuffle(&negatives);
    positives.resize(std::min(positives.size(), kMatchTrainPositives));
    negatives.resize(std::min(negatives.size(), kMatchTrainNegatives));
    std::vector<size_t> sample = positives;
    sample.insert(sample.end(), negatives.begin(), negatives.end());
    std::sort(sample.begin(), sample.end());
    const Dataset labelled = wym::data::Subset(candidates, sample, "train");
    return wym::data::TrainValTestSplit(labelled, 0.75, 0.25, seed);
  }
  return wym::data::DefaultSplit(wym::data::GenerateById("S-WA", seed, 1.0), seed);
}

Dataset MakeExplainBatch(uint64_t seed) { return ExplainSplit(seed).test; }

TablePair MakeMatchTables(uint64_t seed) {
  return MakeProductTables(seed, kMatchCatalog);
}

Dataset MakeServePool(uint64_t seed) {
  Dataset pool = wym::data::GenerateById("S-WA", seed ^ 0x9001, kServePoolScale);
  wym::Rng rng(seed ^ 0x900L);
  rng.Shuffle(&pool.records);
  return pool;
}

Dataset WorkloadRecords(const std::string& workload, uint64_t seed,
                        const WymModel& model) {
  if (workload == kExplainBatch) return MakeExplainBatch(seed);
  if (workload == kMatchTables) {
    return CandidateRecords(MakeMatchTables(seed), &model.encoder());
  }
  return MakeServePool(seed);
}

TablePair WorkloadTables(const std::string& workload, uint64_t seed,
                         const Dataset& records) {
  if (workload == kMatchTables) return MakeMatchTables(seed);
  TablePair tables;
  tables.left.schema = records.schema;
  tables.right.schema = records.schema;
  const size_t n = std::min(records.size(), kProbeTableRows);
  for (size_t i = 0; i < n; ++i) {
    tables.left.rows.push_back(records.records[i].left);
    tables.right.rows.push_back(records.records[i].right);
    if (records.records[i].label == 1) tables.truth.insert({i, i});
  }
  return tables;
}

WymModel LoadModelOrDie(const std::string& path) {
  auto loaded = WymModel::LoadFromFile(path);
  if (!loaded.ok()) Fail("cannot load " + path + ": " + loaded.status().ToString());
  return std::move(loaded).value();
}

int RunSetup(const Args& args) {
  const std::string workload = args.Require("workload");
  const std::string work = args.Require("work");
  const size_t reps = std::max<uint64_t>(args.GetUint("reps", 3), 1);

  std::string totals = "[", generate = "[", fit = "[", save = "[", load = "[";
  std::string first_bytes;
  bool identical = true;
  double validation_f1 = 0.0;
  std::string classifier;
  for (size_t rep = 0; rep < reps; ++rep) {
    const uint64_t t0 = NowNs();
    const wym::data::Split data = MakeTrainingData(workload);
    const uint64_t t1 = NowNs();
    WymModel model;
    model.Fit(data.train, data.validation);
    const uint64_t t2 = NowNs();
    const std::string path = work + "/model.rep" + std::to_string(rep) + ".wym";
    const wym::Status saved = model.SaveToFile(path);
    if (!saved.ok()) Fail("save: " + saved.ToString());
    const uint64_t t3 = NowNs();
    const WymModel loaded = LoadModelOrDie(path);
    const uint64_t t4 = NowNs();
    validation_f1 = loaded.matcher().best_validation_f1();
    classifier = loaded.matcher().best_name();
    const std::string bytes = ReadFile(path);
    if (rep == 0) {
      first_bytes = bytes;
      std::rename(path.c_str(), (work + "/model.wym").c_str());
    } else {
      identical = identical && bytes == first_bytes;
      std::remove(path.c_str());
    }
    const char* sep = rep == 0 ? "" : ",";
    totals += sep + FormatDouble(NsToSeconds(t4 - t0));
    generate += sep + FormatDouble(NsToSeconds(t1 - t0));
    fit += sep + FormatDouble(NsToSeconds(t2 - t1));
    save += sep + FormatDouble(NsToSeconds(t3 - t2));
    load += sep + FormatDouble(NsToSeconds(t4 - t3));
  }
  JsonLine out;
  out.Str("phase", "setup").Str("workload", workload)
      .Raw("total_s", totals + "]").Raw("generate_s", generate + "]")
      .Raw("fit_s", fit + "]").Raw("save_s", save + "]")
      .Raw("load_s", load + "]").Bool("model_bytes_identical", identical)
      .Num("validation_f1", validation_f1).Str("classifier", classifier);
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

namespace {

int ExplainPass(const Args& args, uint64_t seed, wym::util::ThreadPool* pool) {
  Dataset batch = MakeExplainBatch(seed);
  const size_t limit = args.GetUint("limit", 0);
  if (limit > 0 && limit < batch.size()) batch.records.resize(limit);

  const uint64_t t0 = NowNs();
  const WymModel model = LoadModelOrDie(args.Require("model"));
  const uint64_t t1 = NowNs();
  wym::core::PredictionReport report;
  const std::vector<wym::core::Explanation> explanations =
      model.ExplainBatch(batch, &report, pool);
  const uint64_t t2 = NowNs();

  Digest digest, prefix;
  size_t tp = 0, predicted = 0, actual = 0;
  for (size_t i = 0; i < explanations.size(); ++i) {
    const wym::core::Explanation& e = explanations[i];
    for (Digest* d : {&digest, &prefix}) {
      if (d == &prefix && i >= kExplainCheckPrefix) continue;
      d->Add(e.probability);
      d->Add(static_cast<uint64_t>(e.prediction));
      d->Add(static_cast<uint64_t>(e.units.size()));
      for (const auto& unit : e.units) {
        d->Add(unit.relevance);
        d->Add(unit.impact);
      }
    }
    const int label = batch.records[i].label;
    tp += e.prediction == 1 && label == 1;
    predicted += e.prediction == 1;
    actual += label == 1;
  }
  const double run_s = NsToSeconds(t2 - t1);
  JsonLine out;
  out.Str("phase", "pass").Int("records", batch.size())
      .Int("quarantined", report.quarantined.size())
      .Num("load_s", NsToSeconds(t1 - t0)).Num("run_s", run_s)
      .Num("rate", static_cast<double>(batch.size()) / run_s)
      .Num("f1", F1Score(tp, predicted, actual))
      .Str("digest", digest.Hex()).Str("prefix_digest", prefix.Hex())
      .Int("prefix_records", std::min(batch.size(), kExplainCheckPrefix))
      .Num("peak_rss_mb", PeakRssMb());
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

int MatchPass(const Args& args, uint64_t seed, wym::util::ThreadPool* pool) {
  TablePair tables = MakeMatchTables(seed);
  const size_t limit = args.GetUint("limit", 0);
  if (limit > 0 && limit < tables.left.size()) tables.left.rows.resize(limit);

  const uint64_t t0 = NowNs();
  const WymModel model = LoadModelOrDie(args.Require("model"));
  const uint64_t t1 = NowNs();
  wym::blocking::MatchTablesStats stats;
  std::vector<wym::blocking::TableMatch> matches = wym::blocking::MatchTables(
      model, tables.left, tables.right, {}, pool, &stats);
  const uint64_t t2 = NowNs();

  const Digest digest = DigestMatches(matches, tables.left.size());
  const Digest prefix = DigestMatches(matches, kMatchCheckRows);
  size_t tp = 0;
  for (const auto& match : matches) tp += tables.truth.count({match.left_row, match.right_row});
  size_t actual = 0;
  for (const auto& pair : tables.truth) actual += pair.first < tables.left.size();
  const double run_s = NsToSeconds(t2 - t1);
  JsonLine out;
  out.Str("phase", "pass").Int("records", tables.left.size())
      .Int("right_rows", tables.right.size())
      .Int("candidates", stats.candidates_scored)
      .Int("quarantined", stats.records_quarantined)
      .Num("load_s", NsToSeconds(t1 - t0)).Num("run_s", run_s)
      .Num("rate", static_cast<double>(tables.left.size()) / run_s)
      .Num("f1", F1Score(tp, matches.size(), actual))
      .Str("digest", digest.Hex()).Str("prefix_digest", prefix.Hex())
      .Int("prefix_records", std::min(tables.left.size(), kMatchCheckRows))
      .Num("peak_rss_mb", PeakRssMb());
  std::printf("%s\n", out.Render().c_str());
  return 0;
}

}  // namespace

int RunPass(const Args& args) {
  const std::string workload = args.Require("workload");
  const uint64_t seed = args.GetUint("seed", 1);
  wym::util::ThreadPool pool(args.GetUint("threads", 1));
  if (workload == kExplainBatch) return ExplainPass(args, seed, &pool);
  if (workload == kMatchTables) return MatchPass(args, seed, &pool);
  Fail("pass: not a batch workload: " + workload);
}

}  // namespace perfbench
