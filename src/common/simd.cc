#include "common/simd.h"

#include <atomic>
#include <bit>
#include <cstdlib>

#if defined(__x86_64__) || defined(__i386__)
#define IR2_SIMD_X86 1
#include <immintrin.h>
#endif

#if defined(__aarch64__)
#define IR2_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace ir2::simd {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference tier. These are the semantics every other tier must
// reproduce bit for bit; simd_test cross-checks them on random and
// adversarial inputs.
// ---------------------------------------------------------------------------

// Decodes one varint at in[pos]; returns false on truncation or a value
// wider than 5 bytes (shift > 28), the exact corruption conditions of the
// historical posting-list decoder.
inline bool DecodeOneVarint(const uint8_t* in, size_t in_size, size_t* pos,
                            uint32_t* gap_out) {
  uint32_t gap = 0;
  int shift = 0;
  while (true) {
    if (*pos >= in_size || shift > 28) {
      return false;
    }
    const uint8_t b = in[(*pos)++];
    gap |= static_cast<uint32_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  *gap_out = gap;
  return true;
}

// Keyword-token search helpers. FindToken can only match a keyword made of
// lowercase word characters, which is what Tokenizer::Normalize emits.
inline bool IsFoldedKeyword(std::string_view keyword) {
  if (keyword.empty()) {
    return false;
  }
  for (char c : keyword) {
    if (c == '\0' || kWordFold[static_cast<unsigned char>(c)] != c) {
      return false;
    }
  }
  return true;
}

inline bool IsWordByte(uint8_t c) { return kWordFold[c] != 0; }

// True iff `keyword` occurs as a whole token at text[off]: every byte folds
// to the keyword's, and the bytes on either side (if any) are not word
// characters. Requires off + keyword.size() <= size.
inline bool TokenAt(const uint8_t* text, size_t size, size_t off,
                    std::string_view keyword) {
  const size_t len = keyword.size();
  if ((off > 0 && IsWordByte(text[off - 1])) ||
      (off + len < size && IsWordByte(text[off + len]))) {
    return false;
  }
  for (size_t j = 0; j < len; ++j) {
    if (kWordFold[text[off + j]] != keyword[j]) {
      return false;
    }
  }
  return true;
}

// Offset-by-offset search starting at `off`: the scalar reference (from
// offset 0) and the vector tiers' sub-register remainder.
inline size_t FindTokenFrom(const uint8_t* text, size_t size, size_t off,
                            std::string_view keyword) {
  for (; off + keyword.size() <= size; ++off) {
    if (kWordFold[text[off]] == keyword[0] &&
        TokenAt(text, size, off, keyword)) {
      return off;
    }
  }
  return kTokenNotFound;
}

}  // namespace

size_t DecodeDGapVarintsScalar(const uint8_t* in, size_t in_size,
                               uint32_t count, uint32_t* out) {
  uint32_t previous = 0;
  size_t pos = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t gap;
    if (!DecodeOneVarint(in, in_size, &pos, &gap)) {
      return kDecodeError;
    }
    previous += gap;
    out[i] = previous;
  }
  return pos;
}

size_t FindTokenScalar(const char* text, size_t size,
                       std::string_view keyword) {
  if (!IsFoldedKeyword(keyword)) {
    return kTokenNotFound;
  }
  return FindTokenFrom(reinterpret_cast<const uint8_t*>(text), size, 0,
                       keyword);
}

// ---------------------------------------------------------------------------
// x86 tiers. SSE2 is the x86-64 baseline (no target attribute needed); AVX2
// kernels carry a target attribute so the file compiles without -mavx2 and
// the instructions only execute behind the CPUID dispatch below.
// ---------------------------------------------------------------------------
#if IR2_SIMD_X86

namespace {

size_t DecodeDGapVarintsSse2(const uint8_t* in, size_t in_size, uint32_t count,
                             uint32_t* out) {
  uint32_t previous = 0;
  size_t pos = 0;
  uint32_t i = 0;
  while (count - i >= 16 && in_size - pos >= 16) {
    const __m128i chunk =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + pos));
    if (_mm_movemask_epi8(chunk) == 0) {
      // Sixteen single-byte gaps: accumulate without the per-byte
      // continuation branch of the reference decoder.
      for (int j = 0; j < 16; ++j) {
        previous += in[pos + static_cast<size_t>(j)];
        out[i + static_cast<uint32_t>(j)] = previous;
      }
      pos += 16;
      i += 16;
      continue;
    }
    const size_t limit = pos + 16;
    while (pos < limit && i < count) {
      uint32_t gap;
      if (!DecodeOneVarint(in, in_size, &pos, &gap)) {
        return kDecodeError;
      }
      previous += gap;
      out[i++] = previous;
    }
  }
  for (; i < count; ++i) {
    uint32_t gap;
    if (!DecodeOneVarint(in, in_size, &pos, &gap)) {
      return kDecodeError;
    }
    previous += gap;
    out[i] = previous;
  }
  return pos;
}

__attribute__((target("avx2"))) size_t DecodeDGapVarintsAvx2(
    const uint8_t* in, size_t in_size, uint32_t count, uint32_t* out) {
  uint32_t previous = 0;
  size_t pos = 0;
  uint32_t i = 0;
  while (count - i >= 32 && in_size - pos >= 32) {
    const __m256i chunk =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + pos));
    if (_mm256_movemask_epi8(chunk) == 0) {
      // Thirty-two single-byte gaps (the common case for dense posting
      // lists): widen eight at a time and prefix-sum in-register. The two
      // in-lane shift-adds produce per-lane prefix sums; the permute
      // broadcasts the low lane's total into the high lane to complete the
      // cross-lane carry.
      for (int g = 0; g < 4; ++g) {
        const __m128i raw = _mm_loadl_epi64(
            reinterpret_cast<const __m128i*>(in + pos + 8 * g));
        __m256i v = _mm256_cvtepu8_epi32(raw);
        v = _mm256_add_epi32(v, _mm256_slli_si256(v, 4));
        v = _mm256_add_epi32(v, _mm256_slli_si256(v, 8));
        const __m256i low = _mm256_permute2x128_si256(v, v, 0x08);
        v = _mm256_add_epi32(v, _mm256_shuffle_epi32(low, 0xFF));
        v = _mm256_add_epi32(v,
                             _mm256_set1_epi32(static_cast<int>(previous)));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v);
        previous = static_cast<uint32_t>(_mm256_extract_epi32(v, 7));
        i += 8;
      }
      pos += 32;
      continue;
    }
    // Multi-byte gaps present: decode values until the chunk is consumed,
    // re-aligning pos to a value boundary for the next vector probe.
    const size_t limit = pos + 32;
    while (pos < limit && i < count) {
      uint32_t gap;
      if (!DecodeOneVarint(in, in_size, &pos, &gap)) {
        return kDecodeError;
      }
      previous += gap;
      out[i++] = previous;
    }
  }
  for (; i < count; ++i) {
    uint32_t gap;
    if (!DecodeOneVarint(in, in_size, &pos, &gap)) {
      return kDecodeError;
    }
    previous += gap;
    out[i] = previous;
  }
  return pos;
}

// Lane filter: offset i is a candidate when text[i] | 0x20 equals the
// keyword's first byte and text[i + len - 1] | 0x20 its last. OR-ing 0x20
// folds A-Z onto a-z and keeps digits, so no true match is filtered out;
// the filter over-matches (e.g. 0x10-0x19 fold onto '0'-'9'), and TokenAt
// decides every candidate exactly. A step loads text[off, off + 16) and
// text[off + len - 1, off + len + 15), so it runs only while both lie
// inside the text.
size_t FindTokenSse2(const char* text, size_t size, std::string_view keyword) {
  if (!IsFoldedKeyword(keyword) || keyword.size() > size) {
    return kTokenNotFound;
  }
  const uint8_t* t = reinterpret_cast<const uint8_t*>(text);
  const size_t len = keyword.size();
  const __m128i first = _mm_set1_epi8(keyword[0]);
  const __m128i last = _mm_set1_epi8(keyword[len - 1]);
  const __m128i fold = _mm_set1_epi8(0x20);
  size_t off = 0;
  for (; size - off >= len + 15; off += 16) {
    const __m128i a = _mm_or_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t + off)), fold);
    const __m128i b = _mm_or_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(t + off + len - 1)),
        fold);
    uint32_t mask = static_cast<uint32_t>(_mm_movemask_epi8(
        _mm_and_si128(_mm_cmpeq_epi8(a, first), _mm_cmpeq_epi8(b, last))));
    for (; mask != 0; mask &= mask - 1) {
      const size_t candidate =
          off + static_cast<size_t>(std::countr_zero(mask));
      if (TokenAt(t, size, candidate, keyword)) {
        return candidate;
      }
    }
  }
  return FindTokenFrom(t, size, off, keyword);
}

__attribute__((target("avx2"))) size_t FindTokenAvx2(
    const char* text, size_t size, std::string_view keyword) {
  if (!IsFoldedKeyword(keyword) || keyword.size() > size) {
    return kTokenNotFound;
  }
  // The SSE2 filter at 32 lanes per step.
  const uint8_t* t = reinterpret_cast<const uint8_t*>(text);
  const size_t len = keyword.size();
  const __m256i first = _mm256_set1_epi8(keyword[0]);
  const __m256i last = _mm256_set1_epi8(keyword[len - 1]);
  const __m256i fold = _mm256_set1_epi8(0x20);
  size_t off = 0;
  for (; size - off >= len + 31; off += 32) {
    const __m256i a = _mm256_or_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(t + off)), fold);
    const __m256i b = _mm256_or_si256(
        _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(t + off + len - 1)),
        fold);
    uint32_t mask = static_cast<uint32_t>(_mm256_movemask_epi8(
        _mm256_and_si256(_mm256_cmpeq_epi8(a, first),
                         _mm256_cmpeq_epi8(b, last))));
    for (; mask != 0; mask &= mask - 1) {
      const size_t candidate =
          off + static_cast<size_t>(std::countr_zero(mask));
      if (TokenAt(t, size, candidate, keyword)) {
        return candidate;
      }
    }
  }
  return FindTokenFrom(t, size, off, keyword);
}

}  // namespace

#endif  // IR2_SIMD_X86

// ---------------------------------------------------------------------------
// NEON tier (AArch64; NEON is architecturally guaranteed there).
// ---------------------------------------------------------------------------
#if IR2_SIMD_NEON

namespace {

size_t DecodeDGapVarintsNeon(const uint8_t* in, size_t in_size, uint32_t count,
                             uint32_t* out) {
  uint32_t previous = 0;
  size_t pos = 0;
  uint32_t i = 0;
  while (count - i >= 16 && in_size - pos >= 16) {
    const uint8x16_t chunk = vld1q_u8(in + pos);
    if (vmaxvq_u8(chunk) < 0x80) {
      for (int j = 0; j < 16; ++j) {
        previous += in[pos + static_cast<size_t>(j)];
        out[i + static_cast<uint32_t>(j)] = previous;
      }
      pos += 16;
      i += 16;
      continue;
    }
    const size_t limit = pos + 16;
    while (pos < limit && i < count) {
      uint32_t gap;
      if (!DecodeOneVarint(in, in_size, &pos, &gap)) {
        return kDecodeError;
      }
      previous += gap;
      out[i++] = previous;
    }
  }
  for (; i < count; ++i) {
    uint32_t gap;
    if (!DecodeOneVarint(in, in_size, &pos, &gap)) {
      return kDecodeError;
    }
    previous += gap;
    out[i] = previous;
  }
  return pos;
}

size_t FindTokenNeon(const char* text, size_t size, std::string_view keyword) {
  if (!IsFoldedKeyword(keyword) || keyword.size() > size) {
    return kTokenNotFound;
  }
  // The SSE2 lane filter; the 16-lane compare result is narrowed to a
  // 64-bit mask with four bits per lane (shift-right-narrow by 4).
  const uint8_t* t = reinterpret_cast<const uint8_t*>(text);
  const size_t len = keyword.size();
  const uint8x16_t first = vdupq_n_u8(static_cast<uint8_t>(keyword[0]));
  const uint8x16_t last = vdupq_n_u8(static_cast<uint8_t>(keyword[len - 1]));
  const uint8x16_t fold = vdupq_n_u8(0x20);
  size_t off = 0;
  for (; size - off >= len + 15; off += 16) {
    const uint8x16_t a = vorrq_u8(vld1q_u8(t + off), fold);
    const uint8x16_t b = vorrq_u8(vld1q_u8(t + off + len - 1), fold);
    const uint8x16_t eq = vandq_u8(vceqq_u8(a, first), vceqq_u8(b, last));
    uint64_t mask = vget_lane_u64(
        vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(eq), 4)), 0);
    while (mask != 0) {
      const int bit = std::countr_zero(mask);
      const size_t candidate = off + static_cast<size_t>(bit / 4);
      if (TokenAt(t, size, candidate, keyword)) {
        return candidate;
      }
      mask &= ~(uint64_t{0xF} << bit);
    }
  }
  return FindTokenFrom(t, size, off, keyword);
}

}  // namespace

#endif  // IR2_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatch. One kernel table per tier; the active table is resolved once
// from CPUID / the environment and cached in an atomic pointer so every hot
// call is a single relaxed load plus an indirect call.
// ---------------------------------------------------------------------------
namespace {

struct KernelTable {
  Level level;
  size_t (*decode_dgaps)(const uint8_t*, size_t, uint32_t, uint32_t*);
  size_t (*find_token)(const char*, size_t, std::string_view);
};

constexpr KernelTable kScalarTable = {Level::kScalar, DecodeDGapVarintsScalar,
                                      FindTokenScalar};

#if IR2_SIMD_X86
constexpr KernelTable kSse2Table = {Level::kSse2, DecodeDGapVarintsSse2,
                                    FindTokenSse2};
constexpr KernelTable kAvx2Table = {Level::kAvx2, DecodeDGapVarintsAvx2,
                                    FindTokenAvx2};
#endif

#if IR2_SIMD_NEON
constexpr KernelTable kNeonTable = {Level::kNeon, DecodeDGapVarintsNeon,
                                    FindTokenNeon};
#endif

const KernelTable* TableForLevel(Level level) {
  switch (level) {
#if IR2_SIMD_X86
    case Level::kAvx2:
      if (__builtin_cpu_supports("avx2")) return &kAvx2Table;
      return &kScalarTable;
    case Level::kSse2:
      return &kSse2Table;
#endif
#if IR2_SIMD_NEON
    case Level::kNeon:
      return &kNeonTable;
#endif
    default:
      return &kScalarTable;
  }
}

const KernelTable* DetectTable() {
  const char* disable = std::getenv("IR2_DISABLE_SIMD");
  if (disable != nullptr && disable[0] != '\0' && disable[0] != '0') {
    return &kScalarTable;
  }
#if IR2_SIMD_X86
  if (__builtin_cpu_supports("avx2")) {
    return &kAvx2Table;
  }
  return &kSse2Table;  // SSE2 is the x86-64 baseline.
#elif IR2_SIMD_NEON
  return &kNeonTable;
#else
  return &kScalarTable;
#endif
}

std::atomic<const KernelTable*> g_table{nullptr};

inline const KernelTable& ActiveTable() {
  const KernelTable* table = g_table.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = DetectTable();
    g_table.store(table, std::memory_order_release);
  }
  return *table;
}

}  // namespace

Level ActiveLevel() { return ActiveTable().level; }

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSse2:
      return "sse2";
    case Level::kAvx2:
      return "avx2";
    case Level::kNeon:
      return "neon";
  }
  return "unknown";
}

void ForceLevelForTest(Level level) {
  g_table.store(TableForLevel(level), std::memory_order_release);
}

size_t DecodeDGapVarints(const uint8_t* in, size_t in_size, uint32_t count,
                         uint32_t* out) {
  return ActiveTable().decode_dgaps(in, in_size, count, out);
}

size_t FindToken(const char* text, size_t size, std::string_view keyword) {
  return ActiveTable().find_token(text, size, keyword);
}

}  // namespace ir2::simd
