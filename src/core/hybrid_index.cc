#include "core/hybrid_index.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "core/verified_nn_cursor.h"

namespace ir2 {

HybridKeywordIndex::Builder::Builder(BlockDevice* tree_device,
                                     BlockDevice* postings_device,
                                     Options options)
    : tree_device_(tree_device),
      postings_device_(postings_device),
      options_(options),
      inverted_builder_(postings_device) {
  IR2_CHECK(tree_device != nullptr);
  IR2_CHECK_EQ(tree_device->NumBlocks(), 0u);
  options_.tree_options.manage_superblock = false;
}

StatusOr<std::unique_ptr<HybridKeywordIndex>>
HybridKeywordIndex::Builder::Finish(const CorpusTerms& corpus,
                                    std::span<const ObjectRef> refs,
                                    std::span<const Point> locations) {
  IR2_CHECK(!finished_);
  IR2_CHECK_EQ(locations.size(), corpus.num_docs());
  finished_ = true;
  std::unique_ptr<HybridKeywordIndex> index(new HybridKeywordIndex());
  index->tree_device_ = tree_device_;
  index->postings_device_ = postings_device_;
  index->pool_ = std::make_unique<BufferPool>(tree_device_,
                                              options_.pool_blocks);

  IR2_RETURN_IF_ERROR(inverted_builder_.Build(corpus, refs));
  IR2_ASSIGN_OR_RETURN(index->inverted_, InvertedIndex::Open(postings_device_));

  // One STR-packed R-Tree per frequent term, all on the shared device.
  const CorpusTerms::Postings postings = corpus.Invert();
  std::vector<RTreeBase::BulkObject> items;
  for (uint32_t term = 0; term < corpus.num_terms(); ++term) {
    if (corpus.terms()[term].df < options_.tree_threshold) {
      continue;
    }
    auto tree = std::make_unique<RTree>(index->pool_.get(),
                                        options_.tree_options);
    IR2_RETURN_IF_ERROR(tree->Init());
    items.clear();
    for (uint32_t doc : postings.Docs(term)) {
      items.push_back(RTreeBase::BulkObject{
          refs[doc], Rect::ForPoint(locations[doc]), {}});
    }
    IR2_RETURN_IF_ERROR(tree->BulkLoad(items));
    index->trees_.emplace(corpus.terms()[term].word, std::move(tree));
  }
  IR2_RETURN_IF_ERROR(index->pool_->FlushAll());
  return index;
}

StatusOr<std::vector<QueryResult>> HybridKeywordIndex::TopK(
    const ObjectStore& objects, const Tokenizer& tokenizer,
    const DistanceFirstQuery& query, QueryStats* stats) const {
  std::vector<std::string> keywords =
      tokenizer.NormalizeKeywords(query.keywords);
  if (keywords.empty()) {
    return Status::InvalidArgument(
        "Hybrid index queries need at least one keyword");
  }
  const Rect target = query.Target();

  // Drive from the rarest keyword: fewest candidates to verify.
  std::string driver;
  uint64_t driver_df = std::numeric_limits<uint64_t>::max();
  for (const std::string& keyword : keywords) {
    uint64_t df = inverted_->DocumentFrequency(keyword);
    if (df < driver_df) {
      driver_df = df;
      driver = keyword;
    }
  }
  if (driver_df == 0) {
    return std::vector<QueryResult>();  // Some keyword matches nothing.
  }

  auto tree_it = trees_.find(driver);
  if (tree_it != trees_.end()) {
    // Incremental NN over the driver term's tree; the shared cursor
    // verifies the rest of the keywords on each candidate.
    VerifiedNNCursor<AcceptAllEntries> cursor(
        tree_it->second.get(), &objects, tokenizer, target, query.keywords,
        /*scratch=*/nullptr, /*node_scheduler=*/nullptr,
        /*read_pool=*/nullptr, query.max_distance, NoEntryFilter);
    return CollectTopK(cursor, query.k, stats);
  }

  // Rare driver term: scan its posting list (IIO-style on one list). One
  // record and one line buffer are recycled across candidates.
  IR2_ASSIGN_OR_RETURN(std::vector<ObjectRef> postings,
                       inverted_->RetrieveList(driver));
  StoredObject object;
  std::string line;
  std::vector<QueryResult> candidates;
  for (ObjectRef ref : postings) {
    IR2_RETURN_IF_ERROR(objects.LoadInto(ref, &object, &line));
    if (stats != nullptr) {
      ++stats->objects_loaded;
    }
    if (!ContainsAllNormalizedKeywords(object.text, keywords)) {
      if (stats != nullptr) {
        ++stats->false_positives;
      }
      continue;
    }
    Point location(object.coords);
    double distance = target.MinDist(location);
    // Bounded form: the whole list is loaded regardless, so the inclusive
    // bound is a pure post-filter, as in IioTopK.
    if (query.max_distance.has_value() && distance > *query.max_distance) {
      continue;
    }
    candidates.push_back(
        QueryResult{ref, object.id, distance, 0.0, -distance, location});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const QueryResult& a, const QueryResult& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.ref < b.ref;
            });
  if (candidates.size() > query.k) {
    candidates.resize(query.k);
  }
  return candidates;
}

uint64_t HybridKeywordIndex::SizeBytes() const {
  return tree_device_->SizeBytes() + postings_device_->SizeBytes();
}

}  // namespace ir2
