#include "core/general_search.h"

#include <limits>
#include <memory>
#include <optional>
#include <queue>

#include "common/hash.h"
#include "common/logging.h"
#include "geo/point.h"

namespace ir2 {
namespace {

enum class ItemKind {
  kNode,          // id = node BlockId; score is Upper(v).
  kCandidate,     // id = ObjectRef, not yet loaded; score is an upper bound.
  kScoredObject,  // id = ObjectRef with exact score (result/ir/dist filled).
};

struct QueueItem {
  double score;  // Upper bound (node/candidate) or exact (scored object).
  ItemKind kind;
  uint64_t seq;
  uint64_t id;
  // Filled for scored objects only.
  QueryResult result;
};

struct QueueOrder {
  // Max-heap on score; exact scores surface before equal upper bounds so
  // ties resolve toward emitting results.
  bool operator()(const QueueItem& a, const QueueItem& b) const {
    if (a.score != b.score) return a.score < b.score;
    bool a_exact = a.kind == ItemKind::kScoredObject;
    bool b_exact = b.kind == ItemKind::kScoredObject;
    if (a_exact != b_exact) return b_exact;
    return a.seq > b.seq;
  }
};

// Tests one keyword's k bit positions directly against an entry's raw
// payload bytes (avoids materializing a Signature per entry).
bool PayloadMayContainWord(std::span<const uint8_t> payload, uint64_t hash,
                           const SignatureConfig& config) {
  if (payload.size() * 8 < config.bits) {
    return true;  // Corrupted width: never prune on it.
  }
  for (uint32_t i = 0; i < config.hashes_per_word; ++i) {
    uint32_t bit = static_cast<uint32_t>(NthHash(hash, i) % config.bits);
    if (((payload[bit >> 3] >> (bit & 7)) & 1u) == 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<ScoredQueryTerm> BuildQueryTerms(
    const InvertedIndex& index, const IrScorer& scorer,
    const Tokenizer& tokenizer, const std::vector<std::string>& keywords) {
  std::vector<ScoredQueryTerm> terms;
  std::vector<std::string> normalized = tokenizer.NormalizeKeywords(keywords);
  terms.reserve(normalized.size());
  for (std::string& keyword : normalized) {
    ScoredQueryTerm term;
    term.word = std::move(keyword);
    term.word_hash = HashWord(term.word);
    term.idf = scorer.Idf(index.DocumentFrequency(term.word));
    terms.push_back(std::move(term));
  }
  return terms;
}

// The queue-driven core shared by the one-shot and cursor forms.
class GeneralIr2TopKCursor::Impl {
 public:
  Impl(const Ir2Tree* tree, const ObjectStore* objects,
       const Tokenizer* tokenizer, const IrScorer* scorer,
       std::vector<ScoredQueryTerm> terms, GeneralQuery query,
       QueryStats* stats)
      : tree_(tree),
        objects_(objects),
        tokenizer_(tokenizer),
        scorer_(scorer),
        terms_(std::move(terms)),
        query_(std::move(query)),
        target_(query_.Target()),
        stats_(stats) {
    queue_.push(QueueItem{std::numeric_limits<double>::infinity(),
                          ItemKind::kNode, seq_++, tree->root_id(), {}});
  }

  double F(double distance, double ir_score) const {
    return query_.ir_weight * ir_score -
           query_.distance_weight * distance;
  }

  StatusOr<std::optional<QueryResult>> Next() {
    std::vector<double> matched_idfs;
    matched_idfs.reserve(terms_.size());
    while (!queue_.empty()) {
      QueueItem item = queue_.top();
      queue_.pop();

      if (item.kind == ItemKind::kScoredObject) {
        return std::optional<QueryResult>(item.result);
      }

      if (item.kind == ItemKind::kCandidate) {
        IR2_ASSIGN_OR_RETURN(StoredObject object,
                             objects_->Load(static_cast<ObjectRef>(item.id)));
        if (stats_ != nullptr) {
          ++stats_->objects_loaded;
        }
        TermCounts counts = CountTerms(*tokenizer_, object.text);
        double ir_score = scorer_->Score(counts, terms_);
        if (ir_score <= 0.0 && !query_.allow_zero_ir_score) {
          if (stats_ != nullptr) {
            ++stats_->false_positives;  // Signature matched, text did not.
          }
          continue;
        }
        Point location(object.coords);
        double distance = target_.MinDist(location);
        double score = F(distance, ir_score);
        QueryResult result{static_cast<ObjectRef>(item.id), object.id,
                           distance, ir_score, score, location};
        // "Check if actual score of T is >= the max possible score of the
        // objects in the queue."
        if (queue_.empty() || score >= queue_.top().score) {
          return std::optional<QueryResult>(result);
        }
        queue_.push(QueueItem{score, ItemKind::kScoredObject, seq_++,
                              item.id, result});
        continue;
      }

      // Inner or leaf node: expand with per-entry upper bounds.
      IR2_ASSIGN_OR_RETURN(Node node, tree_->LoadNode(item.id));
      if (stats_ != nullptr) {
        ++stats_->nodes_visited;
      }
      const SignatureConfig config = tree_->LevelConfig(node.level);
      for (const Entry& entry : node.entries) {
        matched_idfs.clear();
        for (const ScoredQueryTerm& term : terms_) {
          if (PayloadMayContainWord(entry.payload, term.word_hash, config)) {
            matched_idfs.push_back(term.idf);
          }
        }
        if (matched_idfs.empty() && !query_.allow_zero_ir_score) {
          // "Check if there can be an object T with non-zero IR score."
          if (stats_ != nullptr) {
            ++stats_->entries_pruned;
          }
          continue;
        }
        double upper_ir = scorer_->UpperBound(matched_idfs);
        double upper = F(target_.MinDist(entry.rect), upper_ir);
        queue_.push(QueueItem{
            upper, node.is_leaf() ? ItemKind::kCandidate : ItemKind::kNode,
            seq_++, entry.ref, {}});
      }
    }
    return std::optional<QueryResult>();
  }

 private:
  const Ir2Tree* tree_;
  const ObjectStore* objects_;
  const Tokenizer* tokenizer_;
  const IrScorer* scorer_;
  std::vector<ScoredQueryTerm> terms_;
  GeneralQuery query_;
  Rect target_;
  QueryStats* stats_;
  std::priority_queue<QueueItem, std::vector<QueueItem>, QueueOrder> queue_;
  uint64_t seq_ = 0;
};

GeneralIr2TopKCursor::GeneralIr2TopKCursor(
    const Ir2Tree* tree, const ObjectStore* objects,
    const Tokenizer* tokenizer, const IrScorer* scorer,
    std::vector<ScoredQueryTerm> terms, GeneralQuery query)
    : impl_(new Impl(tree, objects, tokenizer, scorer, std::move(terms),
                     std::move(query), &stats_)) {}

GeneralIr2TopKCursor::~GeneralIr2TopKCursor() = default;

StatusOr<std::optional<QueryResult>> GeneralIr2TopKCursor::Next() {
  return impl_->Next();
}

StatusOr<std::vector<QueryResult>> GeneralIr2TopK(
    const Ir2Tree& tree, const ObjectStore& objects,
    const Tokenizer& tokenizer, const IrScorer& scorer,
    const std::vector<ScoredQueryTerm>& terms, const GeneralQuery& query,
    QueryStats* stats) {
  GeneralIr2TopKCursor cursor(&tree, &objects, &tokenizer, &scorer, terms,
                              query);
  std::vector<QueryResult> results;
  results.reserve(AnswerReserve(query.k));
  while (results.size() < query.k) {
    IR2_ASSIGN_OR_RETURN(std::optional<QueryResult> result, cursor.Next());
    if (!result.has_value()) {
      break;
    }
    results.push_back(*result);
  }
  if (stats != nullptr) {
    *stats += cursor.stats();
  }
  return results;
}

}  // namespace ir2
