// Microbenchmark for the runtime-dispatched SIMD kernels (common/simd.h):
// d-gap varint posting-list decode on short and long lists, and candidate
// verification (the keyword-token search) over Hotels-shaped records. Each
// kernel is timed on the scalar reference tier and on the best tier the CPU
// offers; the ratio is the whole point of the kernels, so the acceptance
// bar — >= 2x on posting decode and on verification, plus a scalar
// verification reference that beats the isalnum() scan it replaced — is
// evaluated here and recorded in BENCH_kernels.json, which check.sh's
// kernels stage regenerates in --smoke form. Signature containment is a
// scalar loop with no tiers to compare; bench_micro's
// BM_SignatureContainment times it.
//
// Methodology: each measurement is the median of kRepeats runs over a
// fixed iteration count (smoke: fewer), with a volatile sink so the
// compiler cannot dead-code the kernel; every verdict is decided on those
// medians, so one slow or fast run cannot flip it. Inputs are sized to
// live in L1/L2, because these loops run over decoded posting chunks and
// loaded candidate records that are already resident — the kernels' job is
// CPU time, not memory bandwidth.

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "datagen/synthetic.h"
#include "text/tokenizer.h"

namespace ir2 {
namespace bench {
namespace {

volatile uint64_t g_sink = 0;

// Runs per measurement; odd, so each median is one measured run.
constexpr size_t kRepeats = 5;
// Acceptance thresholds, recorded in the JSON next to the verdicts.
constexpr double kSpeedupThreshold = 2.0;  // Dispatched vs scalar.
constexpr double kIsalnumThreshold = 1.0;  // isalnum scan vs scalar verify.

struct KernelReport {
  std::string name;
  double scalar_ns = 0;  // Per op (one decoded posting / one verification).
  double simd_ns = 0;
  double speedup = 0;
  std::string simd_level;
  double isalnum_ns = 0;  // verify_hotels_text only: the replaced scan.
};

template <typename Fn>
double MedianNs(size_t iters, Fn&& fn) {
  std::vector<double> ns;
  for (size_t r = 0; r < kRepeats; ++r) {
    Stopwatch watch;
    fn(iters);
    ns.push_back(watch.ElapsedSeconds() * 1e9 / iters);
  }
  std::sort(ns.begin(), ns.end());
  return ns[ns.size() / 2];
}

// --- Posting-list decode ----------------------------------------------

std::vector<uint8_t> EncodePostings(size_t count, uint32_t max_gap,
                                    uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> encoded;
  uint32_t previous = 0;
  for (size_t i = 0; i < count; ++i) {
    uint32_t gap = 1 + static_cast<uint32_t>(rng.NextUint64(max_gap));
    previous += gap;
    while (gap >= 0x80) {
      encoded.push_back(static_cast<uint8_t>(gap) | 0x80);
      gap >>= 7;
    }
    encoded.push_back(static_cast<uint8_t>(gap));
  }
  return encoded;
}

KernelReport BenchDecode(const char* name, size_t count, uint32_t max_gap,
                         size_t iters) {
  const std::vector<uint8_t> encoded = EncodePostings(count, max_gap, count);
  std::vector<uint32_t> out(count);
  const auto run = [&](bool scalar, size_t n) {
    size_t consumed = 0;
    for (size_t it = 0; it < n; ++it) {
      consumed += scalar
                      ? simd::DecodeDGapVarintsScalar(
                            encoded.data(), encoded.size(),
                            static_cast<uint32_t>(count), out.data())
                      : simd::DecodeDGapVarints(
                            encoded.data(), encoded.size(),
                            static_cast<uint32_t>(count), out.data());
    }
    g_sink += consumed + out[count / 2];
  };
  KernelReport report;
  report.name = name;
  // Per-op = one decoded posting.
  report.scalar_ns = MedianNs(iters, [&](size_t n) { run(true, n); }) /
                     static_cast<double>(count);
  report.simd_ns = MedianNs(iters, [&](size_t n) { run(false, n); }) /
                   static_cast<double>(count);
  report.speedup = report.scalar_ns / report.simd_ns;
  report.simd_level = simd::LevelName(simd::ActiveLevel());
  return report;
}

// --- Candidate verification over Hotels-shaped text -------------------

// The verifier the keyword-token search replaced, kept as the baseline: one
// pass over the text with libc isalnum/tolower per byte, matching each
// token against a bitmask of still-unfound keywords (<= 64 keywords).
bool ContainsAllIsalnumScan(std::string_view text,
                            std::span<const std::string> keywords) {
  auto word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0;
  };
  uint64_t pending = (uint64_t{1} << keywords.size()) - 1;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p < end && pending != 0) {
    while (p < end && !word(*p)) ++p;
    const char* token = p;
    while (p < end && word(*p)) ++p;
    const size_t len = static_cast<size_t>(p - token);
    for (uint64_t m = pending; m != 0; m &= m - 1) {
      const int i = std::countr_zero(m);
      const std::string& kw = keywords[static_cast<size_t>(i)];
      bool equal = kw.size() == len && len > 0;
      for (size_t j = 0; equal && j < len; ++j) {
        equal = static_cast<char>(std::tolower(
                    static_cast<unsigned char>(token[j]))) == kw[j];
      }
      if (equal) {
        pending &= ~(uint64_t{1} << i);
        break;
      }
    }
  }
  return pending == 0;
}

// Per-op = one (record, keyword set) verification, the false-positive
// check every signature-tree candidate goes through. Records come from the
// Hotels-shaped generator (~3 KB, ~349 distinct words); each query takes 1-3
// keywords from another record's text, so most pairs are misses, as most
// verified candidates are signature false positives.
KernelReport BenchVerify(size_t iters) {
  SyntheticConfig config = HotelsLikeConfig(0.08);
  config.num_objects = 48;
  const std::vector<StoredObject> records = GenerateDataset(config);
  Tokenizer tokenizer;
  Rng rng(0x5eed);
  std::vector<std::vector<std::string>> queries;
  for (const StoredObject& source : records) {
    const std::vector<std::string> words =
        tokenizer.DistinctTokens(source.text);
    std::vector<std::string> query;
    const size_t count = 1 + rng.NextUint64(3);
    for (size_t i = 0; i < count; ++i) {
      query.push_back(words[rng.NextUint64(words.size())]);
    }
    queries.push_back(tokenizer.NormalizeKeywords(query));
  }
  enum class Way { kIsalnum, kScalar, kDispatched };
  const auto run = [&](Way way, size_t n) {
    uint64_t hits = 0;
    for (size_t it = 0; it < n; ++it) {
      for (const StoredObject& record : records) {
        for (const std::vector<std::string>& query : queries) {
          bool hit = true;
          switch (way) {
            case Way::kIsalnum:
              hit = ContainsAllIsalnumScan(record.text, query);
              break;
            case Way::kScalar:
              for (const std::string& kw : query) {
                if (simd::FindTokenScalar(record.text.data(),
                                          record.text.size(),
                                          kw) == simd::kTokenNotFound) {
                  hit = false;
                  break;
                }
              }
              break;
            case Way::kDispatched:
              hit = ContainsAllNormalizedKeywords(record.text, query);
              break;
          }
          hits += hit;
        }
      }
    }
    g_sink = g_sink + hits;
    return hits;
  };
  const uint64_t expected = run(Way::kIsalnum, 1);
  IR2_CHECK_EQ(run(Way::kScalar, 1), expected);
  IR2_CHECK_EQ(run(Way::kDispatched, 1), expected);
  const double pairs = static_cast<double>(records.size() * queries.size());
  KernelReport report;
  report.name = "verify_hotels_text";
  report.isalnum_ns =
      MedianNs(iters, [&](size_t n) { run(Way::kIsalnum, n); }) / pairs;
  report.scalar_ns =
      MedianNs(iters, [&](size_t n) { run(Way::kScalar, n); }) / pairs;
  report.simd_ns =
      MedianNs(iters, [&](size_t n) { run(Way::kDispatched, n); }) / pairs;
  report.speedup = report.scalar_ns / report.simd_ns;
  report.simd_level = simd::LevelName(simd::ActiveLevel());
  return report;
}

void WriteJson(const char* path, bool smoke,
               const std::vector<KernelReport>& reports,
               bool decode_pass, bool verify_pass, bool verify_scalar_pass) {
  std::FILE* f = std::fopen(path, "w");
  IR2_CHECK(f != nullptr) << "cannot write " << path;
  std::fprintf(f, "{\n  \"bench\": \"kernels\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"dispatch_level\": \"%s\",\n",
               simd::LevelName(simd::ActiveLevel()));
  std::fprintf(f, "  \"kernels\": [\n");
  for (size_t i = 0; i < reports.size(); ++i) {
    const KernelReport& r = reports[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"scalar_ns_per_op\": %.3f, "
                 "\"simd_ns_per_op\": %.3f, \"speedup\": %.2f",
                 r.name.c_str(), r.scalar_ns, r.simd_ns, r.speedup);
    if (r.isalnum_ns > 0) {
      std::fprintf(f,
                   ", \"isalnum_ns_per_op\": %.3f, "
                   "\"scalar_vs_isalnum\": %.2f",
                   r.isalnum_ns, r.isalnum_ns / r.scalar_ns);
    }
    std::fprintf(f, "}%s\n", i + 1 < reports.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  const auto b = [](bool v) { return v ? "true" : "false"; };
  std::fprintf(f,
               "  \"acceptance\": {\"repeats\": %zu, "
               "\"statistic\": \"median\", \"speedup_threshold\": %.1f, "
               "\"scalar_vs_isalnum_threshold\": %.1f, "
               "\"decode_2x\": %s, \"verify_2x\": %s, "
               "\"verify_scalar_beats_isalnum\": %s, \"pass\": %s}\n}\n",
               kRepeats, kSpeedupThreshold, kIsalnumThreshold,
               b(decode_pass), b(verify_pass), b(verify_scalar_pass),
               b(decode_pass && verify_pass && verify_scalar_pass));
  std::fclose(f);
}

void Main(bool smoke) {
  const size_t iters = smoke ? 200 : 2000;
  std::printf("dispatch: %s%s\n", simd::LevelName(simd::ActiveLevel()),
              smoke ? " (smoke)" : "");

  std::vector<KernelReport> reports;
  // Short lists = tail words (tiny decode, call overhead visible); long
  // lists = head words, where decode time actually matters. Small gaps are
  // the realistic dense-list case and the vector fast path; the mixed-gap
  // variant keeps the slow path honest in the same report.
  reports.push_back(BenchDecode("decode_small_list", 128, 100, iters * 8));
  reports.push_back(BenchDecode("decode_large_list", 16384, 60, iters / 8));
  reports.push_back(
      BenchDecode("decode_large_list_wide_gaps", 16384, 1 << 18, iters / 8));
  // 48 x 48 (record, keyword set) pairs per iteration.
  reports.push_back(BenchVerify(smoke ? 1 : 8));

  bool decode_pass = false, verify_pass = false, verify_scalar_pass = false;
  std::printf("%-32s %12s %12s %9s\n", "kernel", "scalar ns/op",
              "simd ns/op", "speedup");
  for (const KernelReport& r : reports) {
    std::printf("%-32s %12.3f %12.3f %8.2fx\n", r.name.c_str(), r.scalar_ns,
                r.simd_ns, r.speedup);
    if (r.name.rfind("decode_", 0) == 0) {
      decode_pass = decode_pass || r.speedup >= kSpeedupThreshold;
    }
    if (r.isalnum_ns > 0) {
      std::printf("%-32s %12.3f %12s %8.2fx (isalnum scan vs scalar)\n",
                  "  isalnum scan (replaced)", r.isalnum_ns, "",
                  r.isalnum_ns / r.scalar_ns);
      verify_pass = r.speedup >= kSpeedupThreshold;
      verify_scalar_pass = r.isalnum_ns / r.scalar_ns > kIsalnumThreshold;
    }
  }
  const bool pass = decode_pass && verify_pass && verify_scalar_pass;
  std::printf(
      "acceptance: decode>=2x %s, verify>=2x %s, "
      "verify scalar beats isalnum %s => %s\n",
      decode_pass ? "yes" : "NO", verify_pass ? "yes" : "NO",
      verify_scalar_pass ? "yes" : "NO", pass ? "PASS" : "FAIL");
  WriteJson("BENCH_kernels.json", smoke, reports, decode_pass, verify_pass,
            verify_scalar_pass);
  std::printf("wrote BENCH_kernels.json\n");
}

}  // namespace
}  // namespace bench
}  // namespace ir2

int main(int argc, char** argv) {
  const bool smoke =
      argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  ir2::bench::Main(smoke);
  return 0;
}
