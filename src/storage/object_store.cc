#include "storage/object_store.h"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <span>

#include "common/logging.h"

namespace ir2 {
namespace {

void AppendSanitized(const std::string& text, std::string* out) {
  for (char c : text) {
    out->push_back((c == '\t' || c == '\n' || c == '\r') ? ' ' : c);
  }
}

void AppendDouble(double v, std::string* out) {
  char buf[32];
  int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  out->append(buf, static_cast<size_t>(n));
}

}  // namespace

ObjectStoreWriter::ObjectStoreWriter(BlockDevice* device) : device_(device) {
  IR2_CHECK(device != nullptr);
  IR2_CHECK_EQ(device->NumBlocks(), 0u);
  pending_.reserve(device->block_size());
}

StatusOr<ObjectRef> ObjectStoreWriter::Append(const StoredObject& object) {
  if (finished_) {
    return Status::FailedPrecondition("Append after Finish");
  }
  std::string row;
  row.reserve(object.text.size() + 64);
  row += std::to_string(object.id);
  row += '\t';
  row += std::to_string(object.coords.size());
  for (double c : object.coords) {
    row += '\t';
    AppendDouble(c, &row);
  }
  row += '\t';
  AppendSanitized(object.text, &row);
  row += '\n';

  uint64_t ref = offset_;
  if (ref > kInvalidObjectRef - row.size()) {
    return Status::ResourceExhausted("Object file exceeds 4 GiB");
  }
  const size_t block_size = device_->block_size();
  for (char c : row) {
    pending_.push_back(static_cast<uint8_t>(c));
    if (pending_.size() == block_size) {
      IR2_RETURN_IF_ERROR(FlushBlock());
    }
  }
  offset_ += row.size();
  ++count_;
  return static_cast<ObjectRef>(ref);
}

Status ObjectStoreWriter::FlushBlock() {
  pending_.resize(device_->block_size(), 0);
  IR2_ASSIGN_OR_RETURN(BlockId id, device_->Allocate(1));
  IR2_RETURN_IF_ERROR(device_->Write(id, pending_));
  pending_.clear();
  return Status::Ok();
}

Status ObjectStoreWriter::Finish() {
  if (finished_) {
    return Status::Ok();
  }
  if (!pending_.empty()) {
    IR2_RETURN_IF_ERROR(FlushBlock());
  }
  finished_ = true;
  return Status::Ok();
}

ObjectStore::ObjectStore(BlockDevice* device, uint64_t size_bytes)
    : device_(device), size_bytes_(size_bytes) {
  IR2_CHECK(device != nullptr);
}

StatusOr<uint64_t> ObjectStore::ReadLine(uint64_t ref,
                                         std::string* line) const {
  if (ref >= size_bytes_) {
    return Status::OutOfRange("Object ref past end of file");
  }
  const size_t block_size = device_->block_size();
  // Load paths run once per candidate object, so the block staging buffer
  // lives on the stack for the standard 4096-byte block (heap only for
  // oversized configurations). Device reads are unchanged: one Read per
  // spanned block, in ascending order.
  constexpr size_t kInlineBlock = 4096;
  uint8_t inline_buf[kInlineBlock];
  std::vector<uint8_t> heap_buf;
  std::span<uint8_t> block;
  if (block_size <= kInlineBlock) {
    block = std::span<uint8_t>(inline_buf, block_size);
  } else {
    heap_buf.resize(block_size);
    block = heap_buf;
  }
  uint64_t block_id = ref / block_size;
  size_t in_block = static_cast<size_t>(ref % block_size);
  line->clear();
  while (true) {
    IR2_RETURN_IF_ERROR(device_->Read(block_id, block));
    size_t limit = block_size;
    uint64_t block_end = (block_id + 1) * block_size;
    if (block_end > size_bytes_) {
      limit = static_cast<size_t>(size_bytes_ - block_id * block_size);
    }
    const char* data = reinterpret_cast<const char*>(block.data());
    const void* newline =
        std::memchr(data + in_block, '\n', limit - in_block);
    if (newline != nullptr) {
      const size_t i =
          static_cast<size_t>(static_cast<const char*>(newline) - data);
      line->append(data + in_block, i - in_block);
      return block_id * block_size + i + 1;
    }
    line->append(data + in_block, limit - in_block);
    ++block_id;
    in_block = 0;
    if (block_id * block_size >= size_bytes_) {
      return Status::Corruption("Unterminated object record");
    }
  }
}

Status ObjectStore::ParseRecordInto(const std::string& line,
                                    StoredObject* out) {
  StoredObject& object = *out;
  object.coords.clear();
  const char* p = line.data();
  const char* end = p + line.size();

  auto next_field = [&]() -> std::string_view {
    const char* start = p;
    while (p < end && *p != '\t') ++p;
    std::string_view field(start, static_cast<size_t>(p - start));
    if (p < end) ++p;  // Skip tab.
    return field;
  };

  std::string_view id_field = next_field();
  auto [id_end, id_err] =
      std::from_chars(id_field.begin(), id_field.end(), object.id);
  if (id_err != std::errc() || id_end != id_field.end()) {
    return Status::Corruption("Bad object id field");
  }

  std::string_view ndims_field = next_field();
  uint32_t ndims = 0;
  auto [nd_end, nd_err] =
      std::from_chars(ndims_field.begin(), ndims_field.end(), ndims);
  if (nd_err != std::errc() || nd_end != ndims_field.end() || ndims == 0 ||
      ndims > 16) {
    return Status::Corruption("Bad object dimension field");
  }

  object.coords.reserve(ndims);
  for (uint32_t d = 0; d < ndims; ++d) {
    std::string_view coord = next_field();
    // Parsed in place. from_chars is correctly rounded, so every %.17g
    // the writer emits reads back to the same bits. Leading whitespace,
    // '+', hex and out-of-range values are rejected; the writer produces
    // none of them.
    double value = 0.0;
    auto [conv_end, conv_err] =
        std::from_chars(coord.data(), coord.data() + coord.size(), value);
    if (coord.empty() || conv_err != std::errc() ||
        conv_end != coord.data() + coord.size()) {
      return Status::Corruption("Bad coordinate field");
    }
    object.coords.push_back(value);
  }

  object.text.assign(p, static_cast<size_t>(end - p));
  return Status::Ok();
}

StatusOr<StoredObject> ObjectStore::Load(ObjectRef ref) const {
  StoredObject object;
  std::string line;
  IR2_RETURN_IF_ERROR(LoadInto(ref, &object, &line));
  return object;
}

Status ObjectStore::LoadInto(ObjectRef ref, StoredObject* object,
                             std::string* line_scratch) const {
  IR2_ASSIGN_OR_RETURN(uint64_t next, ReadLine(ref, line_scratch));
  (void)next;
  return ParseRecordInto(*line_scratch, object);
}

Status ObjectStore::ForEach(
    const std::function<Status(ObjectRef, const StoredObject&)>& fn) const {
  uint64_t offset = 0;
  std::string line;
  StoredObject object;
  while (offset < size_bytes_) {
    IR2_ASSIGN_OR_RETURN(uint64_t next, ReadLine(offset, &line));
    if (line.empty() && next >= size_bytes_) {
      break;  // Trailing padding in the final block.
    }
    IR2_RETURN_IF_ERROR(ParseRecordInto(line, &object));
    IR2_RETURN_IF_ERROR(fn(static_cast<ObjectRef>(offset), object));
    offset = next;
  }
  return Status::Ok();
}

}  // namespace ir2
