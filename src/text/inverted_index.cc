#include "text/inverted_index.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "common/logging.h"
#include "common/simd.h"
#include "storage/io_scheduler.h"
#include "storage/serializer.h"

namespace ir2 {
namespace {

constexpr uint64_t kMagic = 0x3252497649647845ULL;  // "ExdIvIR2" (le).

// Appends bytes to a device through a block-sized staging buffer.
class BlockAppender {
 public:
  explicit BlockAppender(BlockDevice* device)
      : device_(device), buffer_(device->block_size()) {}

  uint64_t offset() const { return offset_; }

  Status Append(std::span<const uint8_t> bytes) {
    const size_t block_size = device_->block_size();
    for (uint8_t b : bytes) {
      buffer_[offset_ % block_size] = b;
      ++offset_;
      if (offset_ % block_size == 0) {
        IR2_RETURN_IF_ERROR(FlushFull());
      }
    }
    return Status::Ok();
  }

  Status AppendU32(uint32_t v) {
    uint8_t buf[4];
    EncodeU32(v, buf);
    return Append(buf);
  }

  // Pads to the block boundary and flushes the final partial block.
  Status Finish() {
    const size_t block_size = device_->block_size();
    if (offset_ % block_size != 0) {
      std::fill(buffer_.begin() + offset_ % block_size, buffer_.end(),
                uint8_t{0});
      offset_ += block_size - offset_ % block_size;
      IR2_RETURN_IF_ERROR(FlushFull());
    }
    return Status::Ok();
  }

 private:
  Status FlushFull() {
    IR2_ASSIGN_OR_RETURN(BlockId id, device_->Allocate(1));
    IR2_RETURN_IF_ERROR(device_->Write(id, buffer_));
    return Status::Ok();
  }

  BlockDevice* device_;
  std::vector<uint8_t> buffer_;
  uint64_t offset_ = 0;  // Bytes appended; block-aligned after Finish().
};

// Reads `length` bytes starting at absolute byte `offset`. Touches each
// spanned block once, ascending: one random access, then sequential. With a
// scheduler, the whole span goes through its ReadRun streaming path in one
// call — the identical block sequence, so I/O accounting is unchanged.
Status ReadByteRange(BlockDevice* device, IoScheduler* scheduler,
                     uint64_t offset, uint64_t length,
                     std::vector<uint8_t>* out) {
  const size_t block_size = device->block_size();
  out->resize(length);
  if (length == 0) {
    return Status::Ok();
  }
  const BlockId first = offset / block_size;
  const size_t in_first = static_cast<size_t>(offset % block_size);
  if (scheduler != nullptr) {
    const uint64_t end = offset + length;
    const uint32_t count =
        static_cast<uint32_t>((end + block_size - 1) / block_size - first);
    std::vector<uint8_t> run;
    IR2_RETURN_IF_ERROR(scheduler->ReadRun(first, count, &run));
    std::memcpy(out->data(), run.data() + in_first, length);
    return Status::Ok();
  }
  std::vector<uint8_t> block(block_size);
  uint64_t pos = 0;
  BlockId block_id = first;
  size_t in_block = in_first;
  while (pos < length) {
    IR2_RETURN_IF_ERROR(device->Read(block_id, block));
    size_t n = std::min<uint64_t>(block_size - in_block, length - pos);
    std::memcpy(out->data() + pos, block.data() + in_block, n);
    pos += n;
    ++block_id;
    in_block = 0;
  }
  return Status::Ok();
}

}  // namespace

InvertedIndexBuilder::InvertedIndexBuilder(BlockDevice* device,
                                           InvertedIndexOptions options)
    : device_(device), options_(options) {
  IR2_CHECK(device != nullptr);
  IR2_CHECK_EQ(device->NumBlocks(), 0u);
}

Status InvertedIndexBuilder::Build(const CorpusTerms& corpus,
                                   std::span<const ObjectRef> refs) {
  IR2_CHECK_EQ(refs.size(), corpus.num_docs());
  IR2_CHECK(std::adjacent_find(refs.begin(), refs.end(),
                               std::greater_equal<ObjectRef>()) == refs.end())
      << "refs must be strictly ascending";
  const size_t block_size = device_->block_size();

  // Block 0: superblock, written last (allocate now).
  IR2_ASSIGN_OR_RETURN(BlockId super_id, device_->Allocate(1));
  IR2_CHECK_EQ(super_id, 0u);

  // Posting lists start at block 1.
  const CorpusTerms::Postings postings = corpus.Invert();
  std::vector<InvertedIndex::TermInfo> dictionary(corpus.num_terms());
  BlockAppender postings_out(device_);
  // The appender's offset is relative to its first block; lists begin at
  // absolute byte block_size (block 1).
  const uint64_t postings_base = block_size;
  std::vector<uint8_t> encoded;
  for (uint32_t term = 0; term < corpus.num_terms(); ++term) {
    const std::span<const uint32_t> docs = postings.Docs(term);
    encoded.clear();
    if (options_.compress_postings) {
      // d-gap + varint compression: store the delta to the previous posting
      // (first posting absolute), 7 bits per byte, high bit = continuation.
      ObjectRef previous = 0;
      for (uint32_t doc : docs) {
        const ObjectRef ref = refs[doc];
        uint32_t gap = ref - previous;
        previous = ref;
        while (gap >= 0x80) {
          encoded.push_back(static_cast<uint8_t>(gap) | 0x80);
          gap >>= 7;
        }
        encoded.push_back(static_cast<uint8_t>(gap));
      }
    } else {
      encoded.resize(4 * docs.size());
      for (size_t i = 0; i < docs.size(); ++i) {
        EncodeU32(refs[docs[i]], encoded.data() + 4 * i);
      }
    }
    dictionary[term] = InvertedIndex::TermInfo{
        postings_base + postings_out.offset(),
        static_cast<uint32_t>(encoded.size()),
        static_cast<uint32_t>(docs.size())};
    IR2_RETURN_IF_ERROR(postings_out.Append(encoded));
  }
  IR2_RETURN_IF_ERROR(postings_out.Finish());

  // Dictionary region.
  const uint64_t dict_base = postings_base + postings_out.offset();
  BlockAppender dict_out(device_);
  uint8_t u64buf[8];
  EncodeU64(corpus.num_terms(), u64buf);
  IR2_RETURN_IF_ERROR(dict_out.Append(u64buf));
  for (uint32_t term = 0; term < corpus.num_terms(); ++term) {
    const std::string& word = corpus.terms()[term].word;
    const InvertedIndex::TermInfo& info = dictionary[term];
    uint8_t u16buf[2];
    EncodeU16(static_cast<uint16_t>(word.size()), u16buf);
    IR2_RETURN_IF_ERROR(dict_out.Append(u16buf));
    IR2_RETURN_IF_ERROR(dict_out.Append(std::span<const uint8_t>(
        reinterpret_cast<const uint8_t*>(word.data()), word.size())));
    EncodeU64(info.byte_offset, u64buf);
    IR2_RETURN_IF_ERROR(dict_out.Append(u64buf));
    IR2_RETURN_IF_ERROR(dict_out.AppendU32(info.byte_length));
    IR2_RETURN_IF_ERROR(dict_out.AppendU32(info.count));
  }
  const uint64_t dict_length = dict_out.offset();
  IR2_RETURN_IF_ERROR(dict_out.Finish());

  // Superblock.
  std::vector<uint8_t> super(block_size, 0);
  BufferWriter writer(super);
  writer.PutU64(kMagic);
  writer.PutU64(corpus.num_docs());
  writer.PutU64(corpus.total_tokens());
  writer.PutU64(dict_base);
  writer.PutU64(dict_length);
  writer.PutU8(options_.compress_postings ? 1 : 0);
  IR2_RETURN_IF_ERROR(device_->Write(super_id, super));
  return Status::Ok();
}

StatusOr<std::unique_ptr<InvertedIndex>> InvertedIndex::Open(
    BlockDevice* device) {
  std::vector<uint8_t> super(device->block_size());
  IR2_RETURN_IF_ERROR(device->Read(0, super));
  BufferReader reader(super);
  if (reader.GetU64() != kMagic) {
    return Status::Corruption("Bad inverted index magic");
  }
  uint64_t num_objects = reader.GetU64();
  uint64_t total_tokens = reader.GetU64();
  uint64_t dict_base = reader.GetU64();
  uint64_t dict_length = reader.GetU64();
  bool compressed = reader.GetU8() != 0;

  std::vector<uint8_t> dict_bytes;
  IR2_RETURN_IF_ERROR(ReadByteRange(device, /*scheduler=*/nullptr, dict_base,
                                    dict_length, &dict_bytes));
  BufferReader dict(dict_bytes);
  uint64_t num_terms = dict.GetU64();
  std::unordered_map<std::string, TermInfo> dictionary;
  dictionary.reserve(num_terms);
  for (uint64_t i = 0; i < num_terms; ++i) {
    if (dict.remaining() < 2) {
      return Status::Corruption("Truncated inverted index dictionary");
    }
    uint16_t len = dict.GetU16();
    if (dict.remaining() < static_cast<size_t>(len) + 16) {
      return Status::Corruption("Truncated inverted index dictionary");
    }
    std::string term(len, '\0');
    dict.GetBytes(std::span<uint8_t>(
        reinterpret_cast<uint8_t*>(term.data()), term.size()));
    TermInfo info;
    info.byte_offset = dict.GetU64();
    info.byte_length = dict.GetU32();
    info.count = dict.GetU32();
    dictionary.emplace(std::move(term), info);
  }

  double avg_doc_len =
      num_objects > 0 ? static_cast<double>(total_tokens) / num_objects : 0.0;
  return std::unique_ptr<InvertedIndex>(new InvertedIndex(
      device, num_objects, avg_doc_len, compressed, std::move(dictionary)));
}

StatusOr<std::vector<ObjectRef>> InvertedIndex::RetrieveList(
    std::string_view word) const {
  auto it = dictionary_.find(std::string(word));
  if (it == dictionary_.end()) {
    return std::vector<ObjectRef>();
  }
  const TermInfo& info = it->second;
  std::vector<uint8_t> bytes;
  IR2_RETURN_IF_ERROR(ReadByteRange(device_, scheduler_, info.byte_offset,
                                    info.byte_length, &bytes));
  std::vector<ObjectRef> refs;
  refs.reserve(info.count);
  if (!compressed_) {
    if (bytes.size() != 4 * static_cast<size_t>(info.count)) {
      return Status::Corruption("Posting list length mismatch");
    }
    for (uint32_t i = 0; i < info.count; ++i) {
      refs.push_back(DecodeU32(bytes.data() + 4 * static_cast<size_t>(i)));
    }
    return refs;
  }
  // Vectorized d-gap decode: the kernel handles dense single-byte runs 32
  // at a time and keeps the reference decoder's exact corruption semantics
  // (truncated value or varint wider than 5 bytes).
  refs.resize(info.count);
  const size_t consumed =
      simd::DecodeDGapVarints(bytes.data(), bytes.size(), info.count,
                              refs.data());
  if (consumed == simd::kDecodeError) {
    return Status::Corruption("Bad varint in posting list");
  }
  if (consumed != bytes.size()) {
    return Status::Corruption("Posting list length mismatch");
  }
  return refs;
}

uint64_t InvertedIndex::DocumentFrequency(std::string_view word) const {
  auto it = dictionary_.find(std::string(word));
  return it == dictionary_.end() ? 0 : it->second.count;
}

uint64_t InvertedIndex::PostingBlocks(std::string_view word) const {
  auto it = dictionary_.find(std::string(word));
  if (it == dictionary_.end() || it->second.byte_length == 0) {
    return 0;
  }
  const TermInfo& info = it->second;
  const uint64_t block_size = device_->block_size();
  const uint64_t first = info.byte_offset / block_size;
  const uint64_t last = (info.byte_offset + info.byte_length - 1) / block_size;
  return last - first + 1;
}

namespace {

// First position in [first, last) not less than `value`, found by
// exponential (galloping) search from `first`: double the probe stride
// until it overshoots, then binary-search the bracketed run. O(log gap)
// per probe instead of O(log n), which wins when successive probes land
// near each other — the common case when the candidate list is much
// shorter than the probed list.
const ObjectRef* GallopLowerBound(const ObjectRef* first,
                                  const ObjectRef* last, ObjectRef value) {
  const size_t n = static_cast<size_t>(last - first);
  if (n == 0 || first[0] >= value) {
    return first;
  }
  // Invariant: first[lo] < value; first[hi] unexamined.
  size_t lo = 0;
  size_t hi = 1;
  while (hi < n && first[hi] < value) {
    lo = hi;
    hi <<= 1;
  }
  if (hi > n) hi = n;
  return std::lower_bound(first + lo + 1, first + hi, value);
}

}  // namespace

std::vector<ObjectRef> IntersectSorted(
    const std::vector<std::vector<ObjectRef>>& lists) {
  if (lists.empty()) {
    return {};
  }
  // Start from the shortest list and gallop through the others, advancing
  // monotonically: probes resume where the previous one landed, so one pass
  // over a probed list costs O(candidates * log(avg gap)) total.
  size_t shortest = 0;
  for (size_t i = 1; i < lists.size(); ++i) {
    if (lists[i].size() < lists[shortest].size()) shortest = i;
  }
  std::vector<ObjectRef> result = lists[shortest];
  for (size_t i = 0; i < lists.size() && !result.empty(); ++i) {
    if (i == shortest) continue;
    const std::vector<ObjectRef>& other = lists[i];
    std::vector<ObjectRef> next;
    next.reserve(result.size());
    const ObjectRef* it = other.data();
    const ObjectRef* const end = other.data() + other.size();
    for (ObjectRef ref : result) {
      it = GallopLowerBound(it, end, ref);
      if (it == end) break;
      if (*it == ref) next.push_back(ref);
    }
    result = std::move(next);
  }
  return result;
}

}  // namespace ir2
