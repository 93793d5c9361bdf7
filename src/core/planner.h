#ifndef IR2TREE_CORE_PLANNER_H_
#define IR2TREE_CORE_PLANNER_H_

// Cost-based query planner: picks the cheapest of the five distance-first
// algorithms per query (Algorithm::kAuto).
//
// The paper's experiments show no single algorithm dominates — IIO wins
// when the keyword conjunction is rare (short posting lists, tiny
// intersection), IR2/MIR2 win when it is frequent (the NN frontier finds k
// matches almost immediately), and the gap is an order of magnitude in
// block accesses. The planner prices each candidate under the same
// DiskModel that prices QueryStats.simulated_disk_ms, using only in-memory
// statistics:
//
//   - per-keyword document frequencies and posting-list block spans from
//     the inverted index's resident dictionary,
//   - the conjunction selectivity (core/stats.h — shared with the
//     object-file sweep decision),
//   - the superimposed-coding false-positive model: a signature test at a
//     level whose payload bit density is d passes a non-matching entry
//     with probability d^w, w = expected distinct bits of the query
//     signature,
//   - per-level tree shape (node counts, blocks per node, payload
//     density) snapshotted once from rtree/tree_stats.h at Build/Open.
//
// Planning performs zero device reads (pinned by
// cold_regime_regression_test), so auto mode's per-query disk profile is
// exactly the chosen algorithm's.
//
// A feedback loop corrects the static model online: per
// (algorithm × selectivity-bucket) EWMAs of the observed-over-estimated
// simulated-disk-ms ratio, updated after every executed auto query.
// Updates are lock-free atomics, so BatchExecutor workers can record into
// worker-private PlannerFeedback instances merged once on drain. See
// docs/planner.md.

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <vector>

#include "core/query.h"
#include "core/stats.h"
#include "storage/block_device.h"
#include "storage/disk_model.h"
#include "text/inverted_index.h"
#include "text/tokenizer.h"

namespace ir2 {

// The five executable algorithms plus kAuto ("let the planner choose").
// kAuto is only a dispatch mode: QueryPlan.chosen is always one of the
// first five. kKcTree sits between kMir2 and kAuto so the first four
// indexes (and everything serialized as their integer values) are
// unchanged from the four-algorithm planner.
enum class Algorithm { kRTree, kIio, kIr2, kMir2, kKcTree, kAuto };

inline constexpr size_t kNumPlannableAlgorithms = 5;

// "rtree" / "iio" / "ir2" / "mir2" / "kctree" / "auto".
const char* AlgorithmName(Algorithm algo);
// Inverse of AlgorithmName; returns false (and leaves *out alone) on an
// unknown name.
bool ParseAlgorithm(std::string_view name, Algorithm* out);

// One level of a tree as the planner sees it. levels[0] is the leaf level,
// back() the root. A plain R-Tree level has signature_bits == 0, which the
// false-positive model treats as "every entry passes" (fp = 1) — the
// R-Tree baseline is priced as the degenerate IR2-Tree with no filter.
struct PlannerLevel {
  uint64_t nodes = 0;
  uint64_t entries = 0;
  double blocks_per_node = 1.0;
  double payload_density = 0.0;  // Fraction of payload bits set.
  uint32_t signature_bits = 0;   // 0 = no signature filter.
  uint32_t hashes_per_word = 0;
};

struct PlannerTreeShape {
  std::vector<PlannerLevel> levels;
  bool present() const { return !levels.empty(); }
};

// Everything the static cost model needs, snapshotted once at Build/Open
// (ComputeTreeStats walks every node, so it must never run per query).
struct PlannerInputs {
  uint64_t num_objects = 0;
  double avg_blocks_per_object = 1.0;
  uint64_t object_file_blocks = 0;
  bool iio_present = false;
  // Posting-list bytes per entry used to estimate block spans when the
  // real dictionary geometry is unavailable (cost-model unit tests feed
  // synthetic document frequencies); d-gap varints average ~2.5 bytes.
  double iio_bytes_per_posting = 2.5;
  // Selectivity assumed per keyword when the inverted index was not built:
  // keyword frequencies are unknowable, so every keyword is assumed to
  // match this fraction of the corpus.
  double default_keyword_selectivity = 0.01;
  DiskModelParams disk_model;
  size_t block_size = kDefaultBlockSize;
  PlannerTreeShape rtree;
  PlannerTreeShape ir2;
  PlannerTreeShape mir2;
  PlannerTreeShape kc;
  // The shape the tree algorithm `algo` is priced on; null for kIio and
  // kAuto.
  PlannerTreeShape* TreeShape(Algorithm algo);
  // KC-Tree vocabulary snapshot: (HashWord(word), document frequency) of
  // every hot word, sorted by hash for binary search at plan time, plus
  // the bitmap/cold-signature split of the payload. The KC cost model
  // prices hot query keywords through exact per-subtree containment
  // probabilities (no false-positive term) and only the cold tail through
  // the superimposed-coding model.
  std::vector<std::pair<uint64_t, uint64_t>> kc_hot_word_dfs;
  uint32_t kc_hot_bits = 0;
  uint32_t kc_cold_bits = 0;
  uint32_t kc_cold_hashes = 0;
};

// Cost the planner assigned one algorithm for one query.
struct PlanCandidate {
  Algorithm algo = Algorithm::kAuto;
  bool feasible = false;  // Structure built and able to answer the query.
  // DiskModel-priced estimate from the static model alone.
  double static_ms = std::numeric_limits<double>::infinity();
  // static_ms × the feedback correction for (algo, selectivity bucket) —
  // the number the decision minimizes.
  double predicted_ms = std::numeric_limits<double>::infinity();
};

struct QueryPlan {
  // False when nothing can answer the query (no structure built).
  bool has_choice = false;
  Algorithm chosen = Algorithm::kIr2;
  int bucket = 0;  // Selectivity bucket the feedback was read from.
  ConjunctionEstimate estimate;
  std::array<PlanCandidate, kNumPlannableAlgorithms> candidates{};
  double chosen_predicted_ms = std::numeric_limits<double>::infinity();
  // Cheapest predicted cost among the feasible candidates NOT chosen. An
  // executed query whose observed cost exceeds this was a misprediction:
  // in hindsight some rejected plan was predicted to do better.
  double best_rejected_predicted_ms = std::numeric_limits<double>::infinity();

  const PlanCandidate& Candidate(Algorithm algo) const {
    return candidates[static_cast<size_t>(algo)];
  }
};

// Online correction of the static model: one EWMA of the ratio
// observed_ms / static_ms per (algorithm × selectivity bucket). All
// updates are lock-free and safe from concurrent BatchExecutor workers;
// workers record into a private instance and MergeFrom it into the
// planner's on drain.
class PlannerFeedback {
 public:
  static constexpr int kBuckets = 8;   // floor(-log10(selectivity)), clamped.
  static constexpr double kAlpha = 0.3;  // EWMA weight of the newest sample.

  // Folds one executed query into the (algo, bucket) EWMA. The first
  // sample seeds the ratio directly so a cold cell converges immediately.
  void Record(Algorithm algo, int bucket, double static_ms,
              double observed_ms);

  // Multiplier applied to static_ms when predicting; 1.0 for a cell that
  // has never observed a query.
  double Correction(Algorithm algo, int bucket) const;
  uint64_t Count(Algorithm algo, int bucket) const;

  // Folds `other` in, weighting each cell's ratio by its sample counts.
  void MergeFrom(const PlannerFeedback& other);
  // Forgets everything (benches reset between thread points so decisions
  // stay deterministic across runs).
  void Reset();

 private:
  struct Cell {
    std::atomic<double> ratio{1.0};
    std::atomic<uint64_t> count{0};
  };
  Cell& CellFor(Algorithm algo, int bucket) {
    return cells_[static_cast<size_t>(algo)][static_cast<size_t>(bucket)];
  }
  const Cell& CellFor(Algorithm algo, int bucket) const {
    return cells_[static_cast<size_t>(algo)][static_cast<size_t>(bucket)];
  }
  std::array<std::array<Cell, kBuckets>, kNumPlannableAlgorithms> cells_;
};

class QueryPlanner {
 public:
  // `index` (nullable) supplies document frequencies and posting geometry;
  // `tokenizer` normalizes query keywords identically to the execution
  // paths. Both must outlive the planner.
  QueryPlanner(PlannerInputs inputs, const InvertedIndex* index,
               const Tokenizer* tokenizer);

  // Prices every candidate and picks the cheapest feasible one. Pure
  // arithmetic plus in-memory dictionary lookups — no I/O. Corrections
  // are read from `corrections` if given, else from this planner's own
  // feedback. Bumps the ir2_plan_chosen_* counter of the winner.
  QueryPlan Plan(const DistanceFirstQuery& q,
                 const PlannerFeedback* corrections = nullptr) const;

  // Feeds the executed plan's observed simulated-disk time back into
  // `sink` (default: this planner's feedback) and counts a misprediction
  // if a rejected candidate was predicted to beat what actually happened.
  void RecordOutcome(const QueryPlan& plan, double observed_ms,
                     PlannerFeedback* sink = nullptr);

  // Static (feedback-free) cost of one algorithm, exposed for the cost
  // model's unit tests. `posting_blocks` (parallel to est.dfs) may be
  // empty, in which case spans are estimated from the frequencies.
  // `keyword_hashes` (parallel to est.dfs) lets the KC-Tree model split
  // the query into hot and cold keywords; when empty every keyword is
  // priced as cold (the conservative floor).
  double StaticCost(Algorithm algo, uint32_t k, const ConjunctionEstimate& est,
                    std::span<const uint64_t> posting_blocks = {},
                    std::span<const uint64_t> keyword_hashes = {}) const;

  // Probability that the signature test at `level` passes an entry whose
  // subtree matches none of the `num_keywords` query keywords:
  // density^weight, weight = expected distinct bits the query sets.
  // 1.0 when the level carries no signatures (plain R-Tree).
  static double SignatureFalsePositiveRate(const PlannerLevel& level,
                                           size_t num_keywords);

  static int SelectivityBucket(double selectivity);

  PlannerFeedback& feedback() { return feedback_; }
  const PlannerInputs& inputs() const { return inputs_; }

 private:
  double TreeCost(const PlannerTreeShape& shape, uint32_t k,
                  const ConjunctionEstimate& est) const;
  double IioCost(const ConjunctionEstimate& est,
                 std::span<const uint64_t> posting_blocks) const;
  double KcCost(uint32_t k, const ConjunctionEstimate& est,
                std::span<const uint64_t> keyword_hashes) const;
  // Single-word false-positive rate of the KC cold signature region in a
  // size-`per_subtree` subtree whose payload is `level`.
  double KcColdFalsePositiveRate(const PlannerLevel& level,
                                 double per_subtree) const;

  PlannerInputs inputs_;
  const InvertedIndex* index_;
  const Tokenizer* tokenizer_;
  // KcColdFalsePositiveRate per KC level, fixed at construction:
  // kc_cold_fp1_[l] prices visits to level-l nodes (their parents' entries
  // at level l + 1), kc_cold_fp1_leaf_ the leaf entries themselves. One
  // entry per KC level (all 1.0 when the cold region is absent).
  std::vector<double> kc_cold_fp1_;
  double kc_cold_fp1_leaf_ = 1.0;
  PlannerFeedback feedback_;
};

}  // namespace ir2

#endif  // IR2TREE_CORE_PLANNER_H_
