#include "core/ir2_search.h"

#include <algorithm>
#include <optional>

namespace ir2 {

// Shared machinery of the one-shot and cursor forms.
class Ir2TopKCursor::Impl {
 public:
  Impl(const Ir2Tree* tree, const ObjectStore* objects,
       const Tokenizer* tokenizer, Rect target,
       std::vector<std::string> keywords, QueryStats* stats,
       Ir2QueryScratch* scratch, NNPrefetchOptions prefetch,
       std::optional<double> max_distance)
      : tree_(tree),
        objects_(objects),
        tokenizer_(tokenizer),
        keywords_(tokenizer->NormalizeKeywords(keywords)),
        stats_(stats),
        max_distance_(max_distance),
        candidate_(scratch != nullptr ? &scratch->candidate : &own_candidate_),
        record_line_(scratch != nullptr ? &scratch->record_line
                                        : &own_record_line_) {
    std::vector<uint64_t>& hashes =
        scratch != nullptr ? scratch->keyword_hashes : own_keyword_hashes_;
    hashes.clear();
    hashes.reserve(keywords_.size());
    for (const std::string& keyword : keywords_) {
      hashes.push_back(HashWord(keyword));
    }
    // W <- Signature(Q.t), one per level width (identical widths for the
    // uniform IR2-Tree; per-level for the MIR2-Tree). Built in place so a
    // scratch-backed query reuses the signatures' word storage.
    std::vector<Signature>& signatures =
        scratch != nullptr ? scratch->level_signatures : own_level_signatures_;
    signatures.resize(tree->height() + 1);
    for (uint32_t level = 0; level <= tree->height(); ++level) {
      MakeSignatureFromHashesInto(hashes, tree->LevelConfig(level),
                                  &signatures[level]);
    }
    SignatureBatchScratch* batch = scratch != nullptr
                                       ? &scratch->signature_batch
                                       : &own_signature_batch_;
    cursor_.emplace(tree, target,
                    SignatureEntryFilter{&signatures, stats, batch},
                    scratch != nullptr ? &scratch->nn : nullptr, prefetch);
  }

  StatusOr<std::optional<QueryResult>> Next() {
    while (true) {
      IR2_ASSIGN_OR_RETURN(std::optional<Neighbor> neighbor, cursor_->Next());
      if (!neighbor.has_value() ||
          (max_distance_.has_value() &&
           neighbor->distance > *max_distance_)) {
        // Bounded form: neighbors stream in ascending distance, so the
        // first one strictly past the (inclusive) bound ends the stream.
        if (stats_ != nullptr) {
          stats_->nodes_visited = cursor_->nodes_visited();
        }
        return std::optional<QueryResult>();
      }
      // Candidate check (Figure 8 line 21): the signature test can produce
      // false positives, so verify against the actual text. The load
      // recycles the cursor's candidate buffers (scratch-donated across
      // queries for a warm worker) and the containment test matches the
      // already-normalized keywords in place — the whole verification loop
      // allocates nothing at steady state.
      obs::TraceSpan verify_span(obs::SpanKind::kObjectVerify, neighbor->ref);
      obs::DefaultMetrics().objects_verified->Add();
      IR2_RETURN_IF_ERROR(
          objects_->LoadInto(neighbor->ref, candidate_, record_line_));
      if (stats_ != nullptr) {
        ++stats_->objects_loaded;
        stats_->nodes_visited = cursor_->nodes_visited();
      }
      if (ContainsAllNormalizedKeywords(candidate_->text, keywords_)) {
        return std::optional<QueryResult>(
            QueryResult{neighbor->ref, candidate_->id, neighbor->distance, 0.0,
                        -neighbor->distance, Point(candidate_->coords)});
      }
      obs::DefaultMetrics().verification_false_positives->Add();
      if (stats_ != nullptr) {
        ++stats_->false_positives;
      }
    }
  }

 private:
  const Ir2Tree* tree_;
  const ObjectStore* objects_;
  const Tokenizer* tokenizer_;
  std::vector<std::string> keywords_;
  QueryStats* stats_;
  std::optional<double> max_distance_;
  // Fallbacks used when no scratch donates the buffers.
  std::vector<uint64_t> own_keyword_hashes_;
  std::vector<Signature> own_level_signatures_;
  SignatureBatchScratch own_signature_batch_;
  StoredObject own_candidate_;
  std::string own_record_line_;
  StoredObject* candidate_;     // Scratch-donated, or &own_candidate_.
  std::string* record_line_;    // Scratch-donated, or &own_record_line_.
  std::optional<IncrementalNNCursor<SignatureEntryFilter>> cursor_;
};

Ir2TopKCursor::Ir2TopKCursor(const Ir2Tree* tree, const ObjectStore* objects,
                             const Tokenizer* tokenizer, Point point,
                             std::vector<std::string> keywords,
                             Ir2QueryScratch* scratch,
                             NNPrefetchOptions prefetch,
                             std::optional<double> max_distance)
    : impl_(new Impl(tree, objects, tokenizer, Rect::ForPoint(point),
                     std::move(keywords), &stats_, scratch, prefetch,
                     max_distance)) {}

Ir2TopKCursor::Ir2TopKCursor(const Ir2Tree* tree, const ObjectStore* objects,
                             const Tokenizer* tokenizer, Rect target,
                             std::vector<std::string> keywords,
                             Ir2QueryScratch* scratch,
                             NNPrefetchOptions prefetch,
                             std::optional<double> max_distance)
    : impl_(new Impl(tree, objects, tokenizer, target, std::move(keywords),
                     &stats_, scratch, prefetch, max_distance)) {}

Ir2TopKCursor::~Ir2TopKCursor() = default;

StatusOr<std::optional<QueryResult>> Ir2TopKCursor::Next() {
  return impl_->Next();
}

StatusOr<std::vector<QueryResult>> Ir2TopK(const Ir2Tree& tree,
                                           const ObjectStore& objects,
                                           const Tokenizer& tokenizer,
                                           const DistanceFirstQuery& query,
                                           QueryStats* stats,
                                           Ir2QueryScratch* scratch,
                                           NNPrefetchOptions prefetch) {
  Ir2TopKCursor cursor(&tree, &objects, &tokenizer, query.Target(),
                       query.keywords, scratch, prefetch,
                       query.max_distance);
  std::vector<QueryResult> results;
  results.reserve(query.k);
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
