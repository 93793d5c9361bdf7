#include "core/planner.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "text/signature.h"

namespace ir2 {

namespace {

constexpr double kInfeasible = std::numeric_limits<double>::infinity();

constexpr Algorithm kPlannable[kNumPlannableAlgorithms] = {
    Algorithm::kRTree, Algorithm::kIio, Algorithm::kIr2, Algorithm::kMir2,
    Algorithm::kKcTree};

obs::Counter* PlanChosenCounter(Algorithm algo) {
  const obs::CoreMetrics& m = obs::DefaultMetrics();
  switch (algo) {
    case Algorithm::kRTree: return m.plan_chosen_rtree;
    case Algorithm::kIio: return m.plan_chosen_iio;
    case Algorithm::kIr2: return m.plan_chosen_ir2;
    case Algorithm::kMir2: return m.plan_chosen_mir2;
    case Algorithm::kKcTree: return m.plan_chosen_kctree;
    case Algorithm::kAuto: break;
  }
  return nullptr;
}

}  // namespace

const char* AlgorithmName(Algorithm algo) {
  switch (algo) {
    case Algorithm::kRTree: return "rtree";
    case Algorithm::kIio: return "iio";
    case Algorithm::kIr2: return "ir2";
    case Algorithm::kMir2: return "mir2";
    case Algorithm::kKcTree: return "kctree";
    case Algorithm::kAuto: return "auto";
  }
  return "unknown";
}

PlannerTreeShape* PlannerInputs::TreeShape(Algorithm algo) {
  switch (algo) {
    case Algorithm::kRTree: return &rtree;
    case Algorithm::kIr2: return &ir2;
    case Algorithm::kMir2: return &mir2;
    case Algorithm::kKcTree: return &kc;
    case Algorithm::kIio:
    case Algorithm::kAuto:
      break;
  }
  return nullptr;
}

bool ParseAlgorithm(std::string_view name, Algorithm* out) {
  for (Algorithm algo : {Algorithm::kRTree, Algorithm::kIio, Algorithm::kIr2,
                         Algorithm::kMir2, Algorithm::kKcTree,
                         Algorithm::kAuto}) {
    if (name == AlgorithmName(algo)) {
      *out = algo;
      return true;
    }
  }
  return false;
}

// ---- PlannerFeedback ----

void PlannerFeedback::Record(Algorithm algo, int bucket, double static_ms,
                             double observed_ms) {
  if (!(static_ms > 0.0) || !std::isfinite(static_ms) ||
      !(observed_ms >= 0.0) || !std::isfinite(observed_ms)) {
    return;
  }
  Cell& cell = CellFor(algo, bucket);
  const double ratio = observed_ms / static_ms;
  const uint64_t prior = cell.count.fetch_add(1, std::memory_order_relaxed);
  double expected = cell.ratio.load(std::memory_order_relaxed);
  double desired;
  do {
    desired = prior == 0 ? ratio : (1.0 - kAlpha) * expected + kAlpha * ratio;
  } while (!cell.ratio.compare_exchange_weak(expected, desired,
                                             std::memory_order_relaxed));
}

double PlannerFeedback::Correction(Algorithm algo, int bucket) const {
  const Cell& cell = CellFor(algo, bucket);
  if (cell.count.load(std::memory_order_relaxed) == 0) {
    return 1.0;
  }
  return std::max(cell.ratio.load(std::memory_order_relaxed), 1e-6);
}

uint64_t PlannerFeedback::Count(Algorithm algo, int bucket) const {
  return CellFor(algo, bucket).count.load(std::memory_order_relaxed);
}

void PlannerFeedback::MergeFrom(const PlannerFeedback& other) {
  for (Algorithm algo : kPlannable) {
    for (int bucket = 0; bucket < kBuckets; ++bucket) {
      const Cell& src = other.CellFor(algo, bucket);
      const uint64_t src_count = src.count.load(std::memory_order_relaxed);
      if (src_count == 0) {
        continue;
      }
      const double src_ratio = src.ratio.load(std::memory_order_relaxed);
      Cell& dst = CellFor(algo, bucket);
      const uint64_t dst_count =
          dst.count.fetch_add(src_count, std::memory_order_relaxed);
      double expected = dst.ratio.load(std::memory_order_relaxed);
      double desired;
      do {
        desired = dst_count == 0
                      ? src_ratio
                      : (expected * static_cast<double>(dst_count) +
                         src_ratio * static_cast<double>(src_count)) /
                            static_cast<double>(dst_count + src_count);
      } while (!dst.ratio.compare_exchange_weak(expected, desired,
                                                std::memory_order_relaxed));
    }
  }
}

void PlannerFeedback::Reset() {
  for (auto& per_algo : cells_) {
    for (Cell& cell : per_algo) {
      cell.ratio.store(1.0, std::memory_order_relaxed);
      cell.count.store(0, std::memory_order_relaxed);
    }
  }
}

// ---- QueryPlanner ----

QueryPlanner::QueryPlanner(PlannerInputs inputs, const InvertedIndex* index,
                           const Tokenizer* tokenizer)
    : inputs_(std::move(inputs)), index_(index), tokenizer_(tokenizer) {
  // The KC cold region's false-positive rate depends on the tree shape
  // and the hot vocabulary only, so every level's value is computed here
  // once instead of on every Plan.
  const std::vector<PlannerLevel>& levels = inputs_.kc.levels;
  kc_cold_fp1_.assign(levels.size(), 1.0);
  if (levels.empty() || inputs_.num_objects == 0 ||
      inputs_.kc_cold_bits == 0) {
    return;  // KcCost never reads the rates (infeasible or no cold filter).
  }
  const double n = static_cast<double>(inputs_.num_objects);
  for (size_t level = 0; level + 1 < levels.size(); ++level) {
    if (levels[level].nodes != 0) {
      kc_cold_fp1_[level] = KcColdFalsePositiveRate(
          levels[level + 1], n / static_cast<double>(levels[level].nodes));
    }
  }
  kc_cold_fp1_leaf_ = KcColdFalsePositiveRate(levels[0], 1.0);
}

int QueryPlanner::SelectivityBucket(double selectivity) {
  if (!(selectivity > 0.0)) {
    return PlannerFeedback::kBuckets - 1;
  }
  const int bucket =
      static_cast<int>(std::floor(-std::log10(std::min(selectivity, 1.0))));
  return std::clamp(bucket, 0, PlannerFeedback::kBuckets - 1);
}

double QueryPlanner::SignatureFalsePositiveRate(const PlannerLevel& level,
                                                size_t num_keywords) {
  if (level.signature_bits == 0 || num_keywords == 0) {
    return 1.0;
  }
  const double density = std::clamp(level.payload_density, 0.0, 1.0);
  if (density >= 1.0) {
    return 1.0;
  }
  if (density <= 0.0) {
    return 0.0;
  }
  // Expected distinct bits a query of m keywords sets: b draws of
  // m * hashes_per_word positions over b bits, with collisions.
  const double bits = static_cast<double>(level.signature_bits);
  const double draws =
      static_cast<double>(num_keywords) * level.hashes_per_word;
  const double weight = bits * (1.0 - std::pow(1.0 - 1.0 / bits, draws));
  // Each of those bits is set in a random payload with probability
  // `density`, independently under superimposed coding.
  return std::pow(density, weight);
}

double QueryPlanner::TreeCost(const PlannerTreeShape& shape, uint32_t k,
                              const ConjunctionEstimate& est) const {
  if (!shape.present() || inputs_.num_objects == 0) {
    return kInfeasible;
  }
  const DiskModel model(inputs_.disk_model, inputs_.block_size);
  const double random_ms = model.RandomAccessMs();
  const double seq_ms = model.SequentialAccessMs();
  const double n = static_cast<double>(inputs_.num_objects);
  const double s = std::min(est.selectivity, 1.0);
  // Leaf entries the distance-ordered frontier inspects before k true
  // matches have been verified.
  const double frontier = ExpectedVerificationLoads(s, k, inputs_.num_objects);

  double node_ms = 0.0;
  const size_t height = shape.levels.size();
  for (size_t level = 0; level < height; ++level) {
    const PlannerLevel& li = shape.levels[level];
    if (li.nodes == 0) {
      continue;
    }
    const double per_subtree = n / static_cast<double>(li.nodes);
    // Nodes at this level overlapping the frontier region...
    const double touched = std::min(static_cast<double>(li.nodes),
                                    frontier / per_subtree + 1.0);
    // ...visited only if the signature test on their parent entry passes.
    // Each query keyword is tested independently against the superimposed
    // signature: a subtree genuinely containing the word always passes its
    // bits, one lacking it passes at the single-word false-positive rate.
    // Factoring per keyword keeps a high-frequency keyword (whose bits are
    // set nearly everywhere) from masking how hard a rare co-keyword
    // prunes — the joint density^weight form underprices exactly those
    // mixed conjunctions. The root (no parent entry) and plain R-Tree
    // levels (no signatures, fp = 1) always pass.
    double visit_rate = 1.0;
    if (level + 1 < height) {
      const double fp1 =
          SignatureFalsePositiveRate(shape.levels[level + 1], 1);
      double pass = 1.0;
      for (uint64_t df : est.dfs) {
        const double sel = std::min(1.0, static_cast<double>(df) / n);
        const double match = 1.0 - std::pow(1.0 - sel, per_subtree);
        pass *= match + (1.0 - match) * fp1;
      }
      visit_rate = pass;
    }
    node_ms += touched * visit_rate *
               (random_ms + (li.blocks_per_node - 1.0) * seq_ms);
  }

  // Objects loaded for verification: a leaf entry passes when every
  // keyword is either genuinely present (probability sel_i) or falsely
  // matched by the signature. The product is bounded below by the true
  // conjunction selectivity s = prod(sel_i).
  const double fp1_leaf = SignatureFalsePositiveRate(shape.levels[0], 1);
  double pass_leaf = 1.0;
  for (uint64_t df : est.dfs) {
    const double sel = std::min(1.0, static_cast<double>(df) / n);
    pass_leaf *= sel + (1.0 - sel) * fp1_leaf;
  }
  const double object_loads = frontier * std::max(s, pass_leaf);
  const double object_ms =
      object_loads *
      (random_ms + (inputs_.avg_blocks_per_object - 1.0) * seq_ms);
  return node_ms + object_ms;
}

double QueryPlanner::IioCost(const ConjunctionEstimate& est,
                             std::span<const uint64_t> posting_blocks) const {
  if (!inputs_.iio_present || est.dfs.empty()) {
    // No index, or a keyword-less query IIO cannot answer (intersecting
    // zero posting lists yields nothing, not "everything").
    return kInfeasible;
  }
  const DiskModel model(inputs_.disk_model, inputs_.block_size);
  const double random_ms = model.RandomAccessMs();
  const double seq_ms = model.SequentialAccessMs();
  double ms = 0.0;
  // Retrieving each posting list: one random access plus sequential reads
  // for the remaining blocks it spans.
  for (size_t i = 0; i < est.dfs.size(); ++i) {
    double blocks;
    if (i < posting_blocks.size() && posting_blocks[i] > 0) {
      blocks = static_cast<double>(posting_blocks[i]);
    } else if (est.dfs[i] > 0) {
      blocks = std::ceil(static_cast<double>(est.dfs[i]) *
                         inputs_.iio_bytes_per_posting /
                         static_cast<double>(inputs_.block_size));
      blocks = std::max(blocks, 1.0);
    } else {
      continue;  // Absent word: the dictionary answers without I/O.
    }
    ms += random_ms + (blocks - 1.0) * seq_ms;
  }
  // Every intersection survivor (exact, no false positives) is loaded and
  // distance-sorted — the cost is independent of k.
  const double matches = est.ExpectedMatches(inputs_.num_objects);
  ms += matches *
        (random_ms + (inputs_.avg_blocks_per_object - 1.0) * seq_ms);
  return ms;
}

// The snapshot's payload_density covers the whole KC payload, so subtract
// the expected set hot bits of a size-m subtree to recover the cold
// region's own density before applying the superimposed model.
double QueryPlanner::KcColdFalsePositiveRate(const PlannerLevel& level,
                                             double per_subtree) const {
  const double n = static_cast<double>(inputs_.num_objects);
  double hot_bits_set = 0.0;
  for (const auto& [hash, df] : inputs_.kc_hot_word_dfs) {
    const double sel = std::min(1.0, static_cast<double>(df) / n);
    hot_bits_set += 1.0 - std::pow(1.0 - sel, per_subtree);
  }
  PlannerLevel cold;
  cold.signature_bits = inputs_.kc_cold_bits;
  cold.hashes_per_word = inputs_.kc_cold_hashes;
  cold.payload_density =
      std::clamp((level.payload_density *
                      static_cast<double>(level.signature_bits) -
                  hot_bits_set) /
                     static_cast<double>(inputs_.kc_cold_bits),
                 0.0, 1.0);
  return SignatureFalsePositiveRate(cold, 1);
}

// KC-Tree cost: the same frontier/visit-rate skeleton as TreeCost, with
// the entry-pass probability split the way the index splits the
// vocabulary. A hot query keyword is tested against an exact per-subtree
// bit — a non-matching entry passes only if its subtree genuinely contains
// the word, probability 1 - (1 - s_i)^m for a size-m subtree — while cold
// keywords add the superimposed-coding false-positive rate of the cold
// region alone. At the leaf (m = 1) the hot term collapses to the product
// of the keywords' raw selectivities, which is exactly the pruning power a
// saturated IR2 signature loses on high-frequency keywords.
double QueryPlanner::KcCost(uint32_t k, const ConjunctionEstimate& est,
                            std::span<const uint64_t> keyword_hashes) const {
  const PlannerTreeShape& shape = inputs_.kc;
  if (!shape.present() || inputs_.num_objects == 0) {
    return kInfeasible;
  }
  const DiskModel model(inputs_.disk_model, inputs_.block_size);
  const double random_ms = model.RandomAccessMs();
  const double seq_ms = model.SequentialAccessMs();
  const double n = static_cast<double>(inputs_.num_objects);
  const double s = std::min(est.selectivity, 1.0);
  const double frontier = ExpectedVerificationLoads(s, k, inputs_.num_objects);

  // Split the query. Keywords without a hash (cost-model unit tests feed
  // synthetic frequencies only) are priced as cold — the conservative
  // floor, since the hot bits can only prune harder.
  std::vector<double> hot_sel;
  std::vector<double> cold_sel;
  for (size_t i = 0; i < est.dfs.size(); ++i) {
    const double sel = std::min(1.0, static_cast<double>(est.dfs[i]) / n);
    bool hot = false;
    if (i < keyword_hashes.size()) {
      auto it = std::lower_bound(
          inputs_.kc_hot_word_dfs.begin(), inputs_.kc_hot_word_dfs.end(),
          keyword_hashes[i],
          [](const std::pair<uint64_t, uint64_t>& entry, uint64_t h) {
            return entry.first < h;
          });
      hot = it != inputs_.kc_hot_word_dfs.end() &&
            it->first == keyword_hashes[i];
    }
    (hot ? hot_sel : cold_sel).push_back(sel);
  }

  // P(size-m subtree contains every hot query keyword) — exact bits, no
  // false-positive term.
  auto hot_pass = [&](double per_subtree) {
    double pass = 1.0;
    for (double sel : hot_sel) {
      pass *= 1.0 - std::pow(1.0 - sel, per_subtree);
    }
    return pass;
  };
  // Cold-region pass rate at a level, per keyword like TreeCost: a
  // subtree genuinely containing the cold word always passes its bits,
  // one lacking it passes at the level's single-word false-positive rate
  // `fp1` (precomputed per level, see KcColdFalsePositiveRate).
  auto cold_pass = [&](double fp1, double per_subtree) {
    if (cold_sel.empty()) return 1.0;
    if (inputs_.kc_cold_bits == 0) return 1.0;  // No cold filter built.
    double pass = 1.0;
    for (double sel : cold_sel) {
      const double match = 1.0 - std::pow(1.0 - sel, per_subtree);
      pass *= match + (1.0 - match) * fp1;
    }
    return pass;
  };

  double node_ms = 0.0;
  const size_t height = shape.levels.size();
  for (size_t level = 0; level < height; ++level) {
    const PlannerLevel& li = shape.levels[level];
    if (li.nodes == 0) {
      continue;
    }
    const double per_subtree = n / static_cast<double>(li.nodes);
    const double touched = std::min(static_cast<double>(li.nodes),
                                    frontier / per_subtree + 1.0);
    // Both factors carry their own containment terms (a subtree holding a
    // true match keeps every per-word factor at 1), so the product is the
    // whole visit rate — no separate match + (1 - match) * fp split.
    double visit_rate = 1.0;
    if (level + 1 < height) {
      visit_rate =
          hot_pass(per_subtree) * cold_pass(kc_cold_fp1_[level], per_subtree);
    }
    node_ms += touched * visit_rate *
               (random_ms + (li.blocks_per_node - 1.0) * seq_ms);
  }

  const double pass_leaf = hot_pass(1.0) * cold_pass(kc_cold_fp1_leaf_, 1.0);
  const double object_loads = frontier * std::max(s, pass_leaf);
  const double object_ms =
      object_loads *
      (random_ms + (inputs_.avg_blocks_per_object - 1.0) * seq_ms);
  return node_ms + object_ms;
}

double QueryPlanner::StaticCost(Algorithm algo, uint32_t k,
                                const ConjunctionEstimate& est,
                                std::span<const uint64_t> posting_blocks,
                                std::span<const uint64_t> keyword_hashes) const {
  switch (algo) {
    case Algorithm::kRTree:
      return TreeCost(inputs_.rtree, k, est);
    case Algorithm::kIio:
      return IioCost(est, posting_blocks);
    case Algorithm::kIr2:
      return TreeCost(inputs_.ir2, k, est);
    case Algorithm::kMir2:
      return TreeCost(inputs_.mir2, k, est);
    case Algorithm::kKcTree:
      return KcCost(k, est, keyword_hashes);
    case Algorithm::kAuto:
      break;
  }
  return kInfeasible;
}

QueryPlan QueryPlanner::Plan(const DistanceFirstQuery& q,
                             const PlannerFeedback* corrections) const {
  const PlannerFeedback& fb = corrections != nullptr ? *corrections : feedback_;
  QueryPlan plan;

  const std::vector<std::string> keywords =
      tokenizer_->NormalizeKeywords(q.keywords);
  std::vector<uint64_t> keyword_hashes;
  keyword_hashes.reserve(keywords.size());
  for (const std::string& keyword : keywords) {
    keyword_hashes.push_back(HashWord(keyword));
  }

  std::vector<uint64_t> posting_blocks;
  if (index_ != nullptr) {
    plan.estimate =
        EstimateConjunction(*index_, keywords, inputs_.num_objects);
    posting_blocks.reserve(keywords.size());
    for (const std::string& keyword : keywords) {
      posting_blocks.push_back(index_->PostingBlocks(keyword));
    }
  } else {
    // No dictionary to ask: assume each keyword matches
    // default_keyword_selectivity of the corpus.
    const double df = inputs_.default_keyword_selectivity *
                      static_cast<double>(inputs_.num_objects);
    for (size_t i = 0; i < keywords.size(); ++i) {
      plan.estimate.dfs.push_back(static_cast<uint64_t>(df));
      plan.estimate.selectivity *= inputs_.default_keyword_selectivity;
    }
  }
  plan.bucket = SelectivityBucket(plan.estimate.selectivity);

  for (Algorithm algo : kPlannable) {
    PlanCandidate& c = plan.candidates[static_cast<size_t>(algo)];
    c.algo = algo;
    c.static_ms =
        StaticCost(algo, q.k, plan.estimate, posting_blocks, keyword_hashes);
    c.feasible = std::isfinite(c.static_ms);
    c.predicted_ms =
        c.feasible ? c.static_ms * fb.Correction(algo, plan.bucket)
                   : kInfeasible;
    if (c.feasible && c.predicted_ms < plan.chosen_predicted_ms) {
      plan.has_choice = true;
      plan.chosen = algo;
      plan.chosen_predicted_ms = c.predicted_ms;
    }
  }
  for (const PlanCandidate& c : plan.candidates) {
    if (c.feasible && c.algo != plan.chosen) {
      plan.best_rejected_predicted_ms =
          std::min(plan.best_rejected_predicted_ms, c.predicted_ms);
    }
  }
  if (plan.has_choice) {
    if (obs::Counter* counter = PlanChosenCounter(plan.chosen)) {
      counter->Add();
    }
  }
  return plan;
}

void QueryPlanner::RecordOutcome(const QueryPlan& plan, double observed_ms,
                                 PlannerFeedback* sink) {
  if (!plan.has_choice) {
    return;
  }
  PlannerFeedback& fb = sink != nullptr ? *sink : feedback_;
  fb.Record(plan.chosen, plan.bucket, plan.Candidate(plan.chosen).static_ms,
            observed_ms);
  if (observed_ms > plan.best_rejected_predicted_ms) {
    obs::DefaultMetrics().plan_mispredict->Add();
  }
}

}  // namespace ir2
