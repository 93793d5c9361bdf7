#include "core/iio.h"

#include <algorithm>
#include <string>

#include "geo/point.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/signature.h"

namespace ir2 {

StatusOr<std::vector<QueryResult>> IioTopK(const InvertedIndex& index,
                                           const ObjectStore& objects,
                                           const Tokenizer& tokenizer,
                                           const DistanceFirstQuery& query,
                                           QueryStats* stats,
                                           IoScheduler* object_prefetch) {
  // Lines 1-3: retrieve and intersect the posting lists.
  std::vector<std::string> keywords =
      tokenizer.NormalizeKeywords(query.keywords);
  std::vector<std::vector<ObjectRef>> lists;
  lists.reserve(keywords.size());
  for (const std::string& keyword : keywords) {
    obs::TraceSpan span(obs::SpanKind::kPostingListRead,
                        HashWord(keyword));
    IR2_ASSIGN_OR_RETURN(std::vector<ObjectRef> list,
                         index.RetrieveList(keyword));
    lists.push_back(std::move(list));
  }
  // Intersect rarest-first: ordering by ascending document frequency (the
  // list lengths) lets the candidate set collapse to the smallest list
  // immediately and keeps every galloping probe short. Which lists are
  // *retrieved* — the disk accesses the paper's cost model counts — is
  // unchanged; only the in-memory intersection order is.
  std::stable_sort(lists.begin(), lists.end(),
                   [](const std::vector<ObjectRef>& a,
                      const std::vector<ObjectRef>& b) {
                     return a.size() < b.size();
                   });
  std::vector<ObjectRef> intersection = IntersectSorted(lists);

  // The whole candidate set is known before any object is fetched — the
  // best possible case for prefetching. Candidates arrive sorted by ref
  // (ascending file position), so the span between the first and last
  // candidate block is known too, and the scheduler can pick between two
  // shapes:
  //
  //   sweep  read the whole span as one sequential run. Fills the gaps
  //          between candidates with cheap sequential transfers; wins when
  //          the intersection is dense (span not much larger than the
  //          candidates' own blocks), because every record — tail blocks
  //          included — is pooled for one seek.
  //   batch  prefetch each candidate's start + next block. Keeps the
  //          speculation proportional to the candidate count when the span
  //          is sparse; adjacent candidates still coalesce.
  //
  // The cutoff mirrors the DiskModel default ratio of a random access to a
  // sequential transfer (~136 blocks of transfer per seek), halved to stay
  // conservative about speculation the fetch loop may not use.
  if (object_prefetch != nullptr && !intersection.empty()) {
    const size_t object_block_size = object_prefetch->pool()->block_size();
    const BlockId first_block = intersection.front() / object_block_size;
    // One block past the last record's start covers its likely tail.
    const BlockId last_block = intersection.back() / object_block_size + 1;
    const uint64_t span = last_block - first_block + 1;
    if (span <= 64 * intersection.size()) {
      object_prefetch->PrefetchRange(first_block,
                                     static_cast<uint32_t>(span));
    } else {
      std::vector<BlockId> blocks;
      blocks.reserve(2 * intersection.size());
      for (ObjectRef ref : intersection) {
        blocks.push_back(ref / object_block_size);
        blocks.push_back(ref / object_block_size + 1);
      }
      object_prefetch->PrefetchBatch(blocks);
    }
  }

  // Lines 4-8: fetch every object in V and compute its distance. One
  // record and one line buffer are recycled across candidates (LoadInto:
  // the same device reads as Load, without a fresh allocation per object).
  const Rect target = query.Target();
  std::vector<QueryResult> candidates;
  candidates.reserve(intersection.size());
  StoredObject object;
  std::string line;
  for (ObjectRef ref : intersection) {
    obs::TraceSpan verify_span(obs::SpanKind::kObjectVerify, ref);
    obs::DefaultMetrics().objects_verified->Add();
    IR2_RETURN_IF_ERROR(objects.LoadInto(ref, &object, &line));
    if (stats != nullptr) {
      ++stats->objects_loaded;
    }
    Point location(object.coords);
    double distance = target.MinDist(location);
    candidates.push_back(
        QueryResult{ref, object.id, distance, 0.0, -distance, location});
  }

  // Lines 9-10: sort by distance, return the first k.
  std::sort(candidates.begin(), candidates.end(),
            [](const QueryResult& a, const QueryResult& b) {
              if (a.distance != b.distance) return a.distance < b.distance;
              return a.ref < b.ref;
            });
  if (candidates.size() > query.k) {
    candidates.resize(query.k);
  }
  // Bounded form: IIO materializes the whole intersection regardless (the
  // bound saves no I/O here), so the cap is a pure post-filter — drop
  // results strictly past the inclusive bound to match the distance-
  // ordered algorithms' answers.
  if (query.max_distance.has_value()) {
    while (!candidates.empty() &&
           candidates.back().distance > *query.max_distance) {
      candidates.pop_back();
    }
  }
  return candidates;
}

}  // namespace ir2
