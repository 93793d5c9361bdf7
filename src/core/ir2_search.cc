#include "core/ir2_search.h"

namespace ir2 {

Ir2TopKCursor::Ir2TopKCursor(const Ir2Tree* tree, const ObjectStore* objects,
                             const Tokenizer* tokenizer, const Rect& target,
                             const std::vector<std::string>& keywords,
                             Ir2QueryScratch* scratch,
                             IoScheduler* node_scheduler,
                             std::optional<double> max_distance,
                             BufferPool* read_pool)
    : VerifiedNNCursor(
          tree, objects, *tokenizer, target, keywords, scratch, node_scheduler,
          read_pool, max_distance,
          [tree](Ir2QueryScratch& s, QueryStats* stats) {
            // W <- Signature(Q.t), one per level width (identical widths
            // for the uniform IR2-Tree; per-level for the MIR2-Tree). Built
            // in place so a scratch-backed query reuses the signatures'
            // word storage.
            s.level_signatures.resize(tree->height() + 1);
            for (uint32_t level = 0; level <= tree->height(); ++level) {
              MakeSignatureFromHashesInto(s.keyword_hashes,
                                          tree->LevelConfig(level),
                                          &s.level_signatures[level]);
            }
            return SignatureEntryFilter{&s.level_signatures, stats};
          }) {}

StatusOr<std::vector<QueryResult>> Ir2TopK(const Ir2Tree& tree,
                                           const ObjectStore& objects,
                                           const Tokenizer& tokenizer,
                                           const DistanceFirstQuery& query,
                                           QueryStats* stats,
                                           Ir2QueryScratch* scratch,
                                           IoScheduler* node_scheduler,
                                           BufferPool* read_pool) {
  Ir2TopKCursor cursor(&tree, &objects, &tokenizer, query.Target(),
                       query.keywords, scratch, node_scheduler,
                       query.max_distance, read_pool);
  return CollectTopK(cursor, query.k, stats);
}

}  // namespace ir2
