#ifndef IR2TREE_TEXT_INVERTED_INDEX_H_
#define IR2TREE_TEXT_INVERTED_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/status_or.h"
#include "storage/block_device.h"
#include "storage/object_store.h"
#include "text/corpus_terms.h"

namespace ir2 {

class IoScheduler;

// Disk-resident inverted index: the data structure behind the paper's IIO
// baseline algorithm.
//
// On-disk layout (own device):
//   block 0            superblock (magic, counts, dictionary location)
//   blocks 1..D-1      posting lists packed back to back; each list is the
//                      ascending ObjectRefs delta-encoded as varints
//                      (d-gap compression, cf. [NMN+00])
//   blocks D..         dictionary (term -> posting offset/length), loaded
//                      fully into memory at Open
//
// Reading a posting list touches exactly the blocks it spans: one random
// access plus sequential accesses, the cost model of IIOTopK's
// RetrieveObjectPointersList.
class InvertedIndex {
 public:
  // Loads the dictionary from `device`. The device must outlive the index.
  static StatusOr<std::unique_ptr<InvertedIndex>> Open(BlockDevice* device);

  // Posting list of a normalized word, sorted by ObjectRef; empty vector if
  // the word is not in the dictionary. Performs disk reads on `device`.
  StatusOr<std::vector<ObjectRef>> RetrieveList(std::string_view word) const;

  // Document frequency from the in-memory dictionary (no I/O).
  uint64_t DocumentFrequency(std::string_view word) const;

  // Device blocks the word's posting list spans — the exact read cost of
  // RetrieveList (1 random + (n-1) sequential accesses). Answered from the
  // in-memory dictionary (no I/O); 0 if the word is not in the dictionary.
  uint64_t PostingBlocks(std::string_view word) const;

  uint64_t num_terms() const { return dictionary_.size(); }
  uint64_t num_objects() const { return num_objects_; }
  double avg_doc_len() const { return avg_doc_len_; }

  BlockDevice* device() const { return device_; }

  // Streams subsequent posting-list reads through `scheduler`'s demand-side
  // ReadRun path: a list spanning n blocks becomes one ascending run
  // (1 random + (n-1) sequential accesses — the identical block sequence
  // the direct path reads, so I/O accounting is unchanged). The scheduler
  // must wrap this index's device and outlive the index; null restores
  // direct device reads.
  void SetScheduler(IoScheduler* scheduler) { scheduler_ = scheduler; }
  IoScheduler* scheduler() const { return scheduler_; }

 private:
  struct TermInfo {
    uint64_t byte_offset;  // Absolute device byte offset of the list start.
    uint32_t byte_length;  // Compressed length in bytes.
    uint32_t count;        // Number of postings.
  };

  InvertedIndex(BlockDevice* device, uint64_t num_objects, double avg_doc_len,
                bool compressed,
                std::unordered_map<std::string, TermInfo> dictionary)
      : device_(device),
        num_objects_(num_objects),
        avg_doc_len_(avg_doc_len),
        compressed_(compressed),
        dictionary_(std::move(dictionary)) {}

  BlockDevice* device_;
  IoScheduler* scheduler_ = nullptr;
  uint64_t num_objects_;
  double avg_doc_len_;
  bool compressed_;
  std::unordered_map<std::string, TermInfo> dictionary_;

  friend class InvertedIndexBuilder;
};

struct InvertedIndexOptions {
  // d-gap varint compression of posting lists [NMN+00]. Raw mode stores
  // 4-byte ObjectRefs — larger but decode-free (the [ZMR98]-era trade-off;
  // see bench_ablation_compression).
  bool compress_postings = true;
};

// One-shot builder: writes the index of a tokenized corpus. Postings are
// the corpus's exact-size inverse CSR (CorpusTerms::Invert), written term by
// term in id order — the terms' lexicographic order.
class InvertedIndexBuilder {
 public:
  // `device` must be empty and outlive the builder.
  explicit InvertedIndexBuilder(BlockDevice* device,
                                InvertedIndexOptions options = {});

  // Writes postings + dictionary + superblock for `corpus`, document i under
  // refs[i]. `refs` must be strictly ascending (the order ObjectStoreWriter
  // hands them out), so every posting list comes out ascending. The token
  // counts give the corpus's avg_doc_len statistic.
  Status Build(const CorpusTerms& corpus, std::span<const ObjectRef> refs);

 private:
  BlockDevice* device_;
  InvertedIndexOptions options_;
};

// Multi-way intersection of ascending-sorted posting lists (the IIO
// algorithm's step 3). Returns refs present in every list; returns an empty
// vector when `lists` is empty.
std::vector<ObjectRef> IntersectSorted(
    const std::vector<std::vector<ObjectRef>>& lists);

}  // namespace ir2

#endif  // IR2TREE_TEXT_INVERTED_INDEX_H_
