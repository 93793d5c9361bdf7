#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

// Brute-force reference answers, computed by the benchmark itself from the
// generated objects: its own term -> objects map, a conjunction by posting
// list intersection, Euclidean distance to every match, and the top k in
// (distance, object id) order. The library's answers are compared against
// these as (object id, distance) lists.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/query.h"
#include "storage/object_store.h"

namespace perfbench {

struct Answer {
  uint32_t object_id = 0;
  double distance = 0;
};

// Order-sensitive digest of an answer list. Equal lists give equal digests;
// the benchmark stores only the digest of each served answer.
class AnswerDigest {
 public:
  void Add(uint32_t object_id, double distance) {
    uint64_t bits = 0;
    std::memcpy(&bits, &distance, sizeof(bits));
    Mix(object_id);
    Mix(bits);
    ++count_;
  }
  uint64_t Finish() {
    Mix(count_);
    return state_;
  }

 private:
  void Mix(uint64_t v) {
    state_ ^= v + 0x9e3779b97f4a7c15ULL + (state_ << 6) + (state_ >> 2);
    state_ *= 0xff51afd7ed558ccdULL;
  }
  uint64_t state_ = 0xcbf29ce484222325ULL;
  uint64_t count_ = 0;
};

inline uint64_t DigestOf(const std::vector<ir2::QueryResult>& results) {
  AnswerDigest digest;
  for (const ir2::QueryResult& r : results) digest.Add(r.object_id, r.distance);
  return digest.Finish();
}

inline uint64_t DigestOf(const std::vector<Answer>& answers) {
  AnswerDigest digest;
  for (const Answer& a : answers) digest.Add(a.object_id, a.distance);
  return digest.Finish();
}

// Distinct case-folded alphanumeric words of `text`: the same word
// boundaries as the library's tokenizer, reimplemented so the reference
// does not depend on it.
inline std::vector<std::string> DistinctWords(std::string_view text) {
  std::vector<std::string> words;
  std::string word;
  for (size_t i = 0; i <= text.size(); ++i) {
    const unsigned char c =
        i < text.size() ? static_cast<unsigned char>(text[i]) : ' ';
    if (std::isalnum(c)) {
      word.push_back(static_cast<char>(std::tolower(c)));
    } else if (!word.empty()) {
      words.push_back(std::move(word));
      word.clear();
    }
  }
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  return words;
}

class Reference {
 public:
  explicit Reference(std::span<const ir2::StoredObject> objects)
      : objects_(objects) {
    for (uint32_t i = 0; i < objects_.size(); ++i) {
      for (std::string& word : DistinctWords(objects_[i].text)) {
        postings_[std::move(word)].push_back(i);
      }
    }
  }

  // Positions of the objects holding every keyword, ascending.
  std::vector<uint32_t> Matches(const std::vector<std::string>& keywords) const {
    std::vector<const std::vector<uint32_t>*> lists;
    for (const std::string& keyword : keywords) {
      std::string normalized;
      for (char c : keyword) {
        normalized.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
      }
      auto it = postings_.find(normalized);
      if (it == postings_.end()) return {};
      lists.push_back(&it->second);
    }
    if (lists.empty()) return {};
    std::sort(lists.begin(), lists.end(),
              [](const auto* a, const auto* b) { return a->size() < b->size(); });
    lists.erase(std::unique(lists.begin(), lists.end()), lists.end());
    std::vector<uint32_t> matches;
    for (uint32_t candidate : *lists.front()) {
      bool all = true;
      for (size_t l = 1; l < lists.size() && all; ++l) {
        all = std::binary_search(lists[l]->begin(), lists[l]->end(),
                                 candidate);
      }
      if (all) matches.push_back(candidate);
    }
    return matches;
  }

  // The q.k objects of `matches` nearest to q.point, in (distance, object
  // id) order.
  std::vector<Answer> TopK(const std::vector<uint32_t>& matches,
                           const ir2::DistanceFirstQuery& q) const {
    const auto closer = [](const Answer& a, const Answer& b) {
      return a.distance != b.distance ? a.distance < b.distance
                                      : a.object_id < b.object_id;
    };
    std::vector<Answer> best;  // Max-heap under `closer` of the k best.
    if (q.k == 0) return best;
    best.reserve(q.k);
    for (uint32_t position : matches) {
      const ir2::StoredObject& object = objects_[position];
      const double dx = object.coords[0] - q.point[0];
      const double dy = object.coords[1] - q.point[1];
      double sum = 0.0;
      sum += dx * dx;
      sum += dy * dy;
      const Answer answer{object.id, std::sqrt(sum)};
      if (best.size() < q.k) {
        best.push_back(answer);
        std::push_heap(best.begin(), best.end(), closer);
      } else if (closer(answer, best.front())) {
        std::pop_heap(best.begin(), best.end(), closer);
        best.back() = answer;
        std::push_heap(best.begin(), best.end(), closer);
      }
    }
    std::sort_heap(best.begin(), best.end(), closer);
    return best;
  }

  std::vector<Answer> TopK(const ir2::DistanceFirstQuery& q) const {
    return TopK(Matches(q.keywords), q);
  }

 private:
  std::span<const ir2::StoredObject> objects_;
  std::unordered_map<std::string, std::vector<uint32_t>> postings_;
};

// One checking thread's memo over a Reference: the matches of each keyword
// set and the answer digest of each distinct query it has checked. The
// serve_zipf stream repeats both (a fixed pool of keyword sets, half of the
// requests exact repeats of a pool entry), which keeps checking every one
// of its answers cheap. Both memos are capped; past a cap, answers are
// computed without memoizing.
class ReferenceMemo {
 public:
  explicit ReferenceMemo(const Reference& reference) : reference_(reference) {}

  uint64_t Digest(const ir2::DistanceFirstQuery& q) {
    std::string key;
    for (const std::string& keyword : q.keywords) {
      key += keyword;
      key += ' ';
    }
    const size_t keywords_size = key.size();
    const double point[2] = {q.point[0], q.point[1]};
    key.append(reinterpret_cast<const char*>(point), sizeof(point));
    key.append(reinterpret_cast<const char*>(&q.k), sizeof(q.k));
    if (auto it = digests_.find(key); it != digests_.end()) return it->second;

    const std::string set_key = key.substr(0, keywords_size);
    std::vector<uint32_t> computed;
    const std::vector<uint32_t>* matches = &computed;
    if (auto it = matches_.find(set_key); it != matches_.end()) {
      matches = &it->second;
    } else {
      computed = reference_.Matches(q.keywords);
      if (memo_positions_ + computed.size() <= kMaxPositions) {
        memo_positions_ += computed.size();
        matches = &matches_.emplace(set_key, std::move(computed)).first->second;
      }
    }
    const uint64_t digest = DigestOf(reference_.TopK(*matches, q));
    if (digests_.size() < kMaxDigests) digests_.emplace(std::move(key), digest);
    return digest;
  }

 private:
  static constexpr size_t kMaxPositions = size_t{8} << 20;  // 32 MB.
  static constexpr size_t kMaxDigests = size_t{1} << 16;

  const Reference& reference_;
  std::unordered_map<std::string, std::vector<uint32_t>> matches_;
  size_t memo_positions_ = 0;
  std::unordered_map<std::string, uint64_t> digests_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
