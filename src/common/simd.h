#ifndef IR2TREE_COMMON_SIMD_H_
#define IR2TREE_COMMON_SIMD_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

// Runtime-dispatched vector kernels for the two hot inner loops of query
// time that pay for their vector tiers (bench_kernels): d-gap varint
// posting-list decode (the IIO baseline) and the keyword-token search
// FindToken that verifies every candidate object against the query keywords
// (the false-positive check behind every signature filter). Signature
// containment is not here: it is one scalar word loop in text/signature.cc,
// where vector tiers measured too small a gain to pay for their code.
// Dispatch is resolved once per
// process from CPUID (x86) or the target architecture (NEON) and can be
// forced to the scalar reference with IR2_DISABLE_SIMD=1 in the environment,
// which scripts/check.sh uses to golden-diff the two paths.
//
// Every kernel is a pure function of its inputs with bit-identical results
// across tiers — the dispatched entry points and the *Scalar references may
// be cross-checked on arbitrary inputs (simd_test does, including unaligned
// tails and adversarial bit patterns).
namespace ir2::simd {

enum class Level {
  kScalar,  // Portable reference, also the IR2_DISABLE_SIMD=1 path.
  kSse2,    // 128-bit x86 baseline.
  kAvx2,    // 256-bit x86.
  kNeon,    // 128-bit AArch64.
};

// The tier all dispatched kernels below currently run on.
Level ActiveLevel();
const char* LevelName(Level level);

// Test/bench hook: force a specific tier (no-op fallback to scalar when the
// CPU lacks it). Affects all subsequent dispatched calls process-wide; not
// thread-safe against in-flight kernel calls, so only call at startup or
// between single-threaded test cases.
void ForceLevelForTest(Level level);

// Decodes exactly `count` d-gap varints (7 data bits per byte, high bit =
// continuation, at most 5 bytes per value) from in[0, in_size), writing the
// running prefix sums (absolute ObjectRefs) to out[0, count). Returns the
// number of input bytes consumed, or kDecodeError if a value is truncated
// or longer than 5 bytes — the same corruption conditions the scalar
// reference detects, so callers keep their existing error semantics.
inline constexpr size_t kDecodeError = ~static_cast<size_t>(0);
size_t DecodeDGapVarints(const uint8_t* in, size_t in_size, uint32_t count,
                         uint32_t* out);
size_t DecodeDGapVarintsScalar(const uint8_t* in, size_t in_size,
                               uint32_t count, uint32_t* out);

// Word classification shared by build-time tokenization and query-time
// verification: kWordFold[c] is the lowercase form of byte c when c is in
// [0-9A-Za-z], and 0 for every other byte. This is C-locale ASCII by
// construction (bytes >= 0x80 are never word characters) and does not
// depend on setlocale.
inline constexpr std::array<char, 256> kWordFold = [] {
  std::array<char, 256> fold{};
  for (int c = '0'; c <= '9'; ++c) fold[c] = static_cast<char>(c);
  for (int c = 'a'; c <= 'z'; ++c) {
    fold[c] = static_cast<char>(c);
    fold[c - 'a' + 'A'] = static_cast<char>(c);
  }
  return fold;
}();

inline constexpr size_t kTokenNotFound = ~static_cast<size_t>(0);

// Offset of the first whole-token occurrence of `keyword` in
// text[0, size): the smallest i such that text[i, i + keyword.size())
// case-folds (kWordFold) to `keyword` and neither text[i - 1] nor
// text[i + keyword.size()] is a word character. kTokenNotFound if there is
// none. `keyword` must be lowercase [0-9a-z] (Tokenizer::Normalize output);
// an empty keyword or one with any other byte matches nothing. The vector
// tiers compare the case-folded (| 0x20) first and last keyword bytes at
// 16 or 32 offsets per step and confirm each lane hit exactly; their loads
// never read past text[size - 1].
size_t FindToken(const char* text, size_t size, std::string_view keyword);
size_t FindTokenScalar(const char* text, size_t size, std::string_view keyword);

}  // namespace ir2::simd

#endif  // IR2TREE_COMMON_SIMD_H_
