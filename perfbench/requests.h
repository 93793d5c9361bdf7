#ifndef PERFBENCH_REQUESTS_H_
#define PERFBENCH_REQUESTS_H_

// Request streams of the three workloads. Request i of a stream is a pure
// function of (seed, i): each request seeds its own generator, so the
// stream is the same however many clients consume it and in whatever order
// they finish. The library only ever sees the generated queries.
//
// The queries are formed like the library's GenerateWorkload (a uniform
// point, keywords from one random object's text), but that function makes
// a whole batch from one ir2::Rng: request i would depend on the batch
// size and on every request before it, and a change to the library's Rng
// or tokenizer would change the benchmark's inputs. A closed loop needs an
// open-ended stream whose request i the reference check can rebuild alone.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/query.h"
#include "storage/object_store.h"

namespace perfbench {

// SplitMix64: small, fast, and independent of the library's own Rng, so a
// change to the library cannot change the benchmark's inputs.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform over [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  double Gaussian() {
    const double u1 = std::max(Uniform(), 1e-300);
    const double u2 = Uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

 private:
  uint64_t state_;
};

inline uint64_t StreamSeed(uint64_t seed, uint64_t salt, uint64_t index) {
  SplitMix mix(seed ^ (salt * 0xd1b54a32d192ed03ULL));
  return mix.Next() ^ (index * 0x9e3779b97f4a7c15ULL);
}

// Shape of every request: conjunctions of 1..kMaxKeywords distinct words
// of at least kMinKeywordLength letters, asking for the kK nearest.
constexpr uint32_t kK = 10;
constexpr uint32_t kMaxKeywords = 3;
constexpr size_t kMinKeywordLength = 3;
// Zipf template traffic (serve_zipf): popularity ~ 1 / rank^kZipfS; a
// kExactFraction share of requests repeats its template verbatim, the rest
// move the point by a Gaussian of kJitterFraction of the data's extent
// and ask for k' <= kK.
constexpr double kZipfS = 1.0;
constexpr double kExactFraction = 0.5;
constexpr double kJitterFraction = 0.002;

class RequestStream {
 public:
  static constexpr uint64_t kPoolSeed = 20080407;

  // `pool_size` > 0 draws the traffic from that many Zipf-popular keyword
  // sets (serve_zipf); 0 makes every request fresh (serve_uniform and
  // cold_disk).
  RequestStream(std::span<const ir2::StoredObject> objects, uint64_t seed,
                uint32_t pool_size)
      : objects_(objects), seed_(seed) {
    min_x_ = min_y_ = std::numeric_limits<double>::infinity();
    max_x_ = max_y_ = -std::numeric_limits<double>::infinity();
    for (const ir2::StoredObject& object : objects_) {
      min_x_ = std::min(min_x_, object.coords[0]);
      max_x_ = std::max(max_x_, object.coords[0]);
      min_y_ = std::min(min_y_, object.coords[1]);
      max_y_ = std::max(max_y_, object.coords[1]);
    }
    if (pool_size > 0) {
      // The template pool is part of the workload, like the dataset: fixed,
      // not drawn from the seed. The seed draws the traffic over it, so
      // runs with different seeds do not differ in which keyword sets
      // happen to be the popular ones.
      templates_.reserve(pool_size);
      double total = 0;
      for (uint32_t t = 0; t < pool_size; ++t) {
        templates_.push_back(Fresh(StreamSeed(kPoolSeed, /*salt=*/2, t)));
        total += 1.0 / std::pow(static_cast<double>(t + 1), kZipfS);
        cdf_.push_back(total);
      }
      for (double& c : cdf_) c /= total;
    }
  }

  // Request `index` of the stream.
  ir2::DistanceFirstQuery Make(uint64_t index) const {
    const uint64_t seed = StreamSeed(seed_, /*salt=*/1, index);
    if (templates_.empty()) return Fresh(seed);
    SplitMix rng(seed);
    const size_t t = static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), rng.Uniform()) -
        cdf_.begin());
    ir2::DistanceFirstQuery q = templates_[std::min(t, cdf_.size() - 1)];
    if (rng.Uniform() >= kExactFraction) {
      const double jitter =
          kJitterFraction * std::max(max_x_ - min_x_, max_y_ - min_y_);
      q.point = ir2::Point(q.point[0] + rng.Gaussian() * jitter,
                           q.point[1] + rng.Gaussian() * jitter);
      q.k = static_cast<uint32_t>(1 + rng.Below(q.k));
    }
    return q;
  }

 private:
  // A query the way the motivating applications form one: a uniform point
  // over the data's bounding box and 1..kMaxKeywords distinct words drawn
  // from the tokens of one random object's text, so the conjunction is
  // satisfiable. Drawing token positions (rather than materializing the
  // object's distinct word set) keeps a Hotels-sized request at a few
  // microseconds, which keeps generation out of the serial client's pace.
  ir2::DistanceFirstQuery Fresh(uint64_t seed) const {
    SplitMix rng(seed);
    ir2::DistanceFirstQuery q;
    q.k = kK;
    q.point = ir2::Point(rng.Uniform(min_x_, max_x_),
                         rng.Uniform(min_y_, max_y_));
    std::vector<std::string_view> tokens;
    while (tokens.empty()) {
      const ir2::StoredObject& source = objects_[rng.Below(objects_.size())];
      tokens = Tokens(source.text, kMinKeywordLength);
    }
    const size_t want = 1 + rng.Below(kMaxKeywords);
    std::vector<std::string> words;
    for (int attempt = 0; attempt < 64 && words.size() < want; ++attempt) {
      std::string word(tokens[rng.Below(tokens.size())]);
      for (char& c : word) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      if (std::find(words.begin(), words.end(), word) == words.end()) {
        words.push_back(std::move(word));
      }
    }
    std::sort(words.begin(), words.end());
    q.keywords = std::move(words);
    return q;
  }

  // Alphanumeric runs of `text` at least `min_length` long, in order.
  static std::vector<std::string_view> Tokens(std::string_view text,
                                              size_t min_length) {
    std::vector<std::string_view> tokens;
    size_t begin = 0;
    for (size_t i = 0; i <= text.size(); ++i) {
      if (i < text.size() &&
          std::isalnum(static_cast<unsigned char>(text[i]))) {
        continue;
      }
      if (i - begin >= min_length) {
        tokens.push_back(text.substr(begin, i - begin));
      }
      begin = i + 1;
    }
    return tokens;
  }

  std::span<const ir2::StoredObject> objects_;
  uint64_t seed_;
  double min_x_, max_x_, min_y_, max_y_;
  std::vector<ir2::DistanceFirstQuery> templates_;
  std::vector<double> cdf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REQUESTS_H_
