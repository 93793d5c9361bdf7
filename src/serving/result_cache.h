#ifndef IR2TREE_SERVING_RESULT_CACHE_H_
#define IR2TREE_SERVING_RESULT_CACHE_H_

// Semantic top-k result cache with provable triangle-inequality reuse
// (docs/performance.md, result-cache chapter). Sits above the whole planner
// — and, in the sharded tier, above the scatter-gather — turning repeated
// hot traffic into near-zero-I/O answers.
//
// An entry is keyed by the *normalized keyword multiset* (sorted canonical
// keywords) and holds the exact over-fetched top-K around the original
// query point p, sorted by the global merge order (distance, object id,
// ref), plus the covering radius r_K (the K-th distance). A later query
// (p', k') with the same keywords is re-ranked against the cached objects;
// the answer is provably exact when
//
//     d'_k' < r_K - dist(p, p')          (strict)
//
// because any object absent from the entry is at least r_K from p, hence at
// least r_K - dist(p, p') from p' — strictly farther than every selected
// result. Two short-circuits need no inequality: p' == p with k' <= K (the
// cached list is the same total order, so its prefix *is* the answer), and
// exhaustive entries (the database held fewer than K matches, so the entry
// is the complete match set and any (p', k') re-rank is exact). The strict
// inequality is what keeps ties at exactly r_K sound: such objects may have
// lost the K-th slot on object id and be absent from the entry.
//
// Admission is a priced decision learned from what this cache observes.
// Each keyword set carries an EWMA of its request rate, decayed on a global
// request tick (deterministic — no wall clock). Every admitted entry
// remembers the EWMA bucket (log2 of the rate) it was admitted from, and
// every hit or near hit credits a serve to that bucket, so each bucket
// keeps decayed serves/admits. The tier reports the simulated disk time of
// every executed miss: one running mean c_k for plain-k misses and one c_K
// for over-fetched fills. A miss over-fetches to K > k and is admitted iff
//
//     serves/admits(bucket) * c_k  >=  c_K - c_k
//
// (the expected saving of a cached ball against the extra cost of buying
// it); otherwise it runs at k and admits nothing. A bucket with too few
// admissions of its own is judged by the whole ledger's ratio. Until c_K
// exists every miss over-fetches; until c_k has a full window of samples
// (over-fetching freezes it, so it must be trusted before it decides) only a
// ledger that shows no reuse (under one serve per 32 admissions) skips. A
// deterministic 1-in-16 tick sample over-fetches and admits regardless,
// so the reuse estimate and c_K stay fresh when the traffic shifts. Hot
// sets earn a larger K, which widens the reusable ball.
//
// Correctness under mutation rides the trees' NodeCache version counters:
// the caller passes its current mutation epoch (sum of RTreeBase::version
// over the built trees) into TryServe/Admit; an entry filled under any
// other epoch is rejected on read, counted as an invalidation, and dropped.
//
// Thread-safe: the key space is striped over independently locked shards
// (the BufferPool/NodeCache pattern); the request tick is one atomic.

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/query.h"
#include "obs/explain.h"
#include "obs/metrics.h"

namespace ir2 {

// The reuse decision for one lookup, with the inequality's actual numbers —
// surfaced by EXPLAIN so a hit is auditable, not just observable.
struct CacheReuseCheck {
  bool attempted = false;    // An entry existed for the keyword set.
  bool hit = false;          // Served from cache.
  bool exact = false;        // p' == p (prefix reuse, no inequality needed).
  bool exhaustive = false;   // Entry holds every match in the database.
  bool stale = false;        // Entry rejected: mutation epoch moved.
  double center_shift = 0.0;   // dist(p, p').
  double cached_radius = 0.0;  // r_K of the entry consulted.
  double kth_distance = 0.0;   // Re-ranked k'-th distance d'_k'.
  uint64_t cached_results = 0; // Objects held by the entry (K).

  // The admission decision taken after a miss, with both prices (all zero
  // on a hit). `saving` is serves/admits x c_k, `extra` is c_K - c_k.
  struct Admission {
    bool decided = false;    // The miss reached the admission rule.
    bool overfetch = false;  // Over-fetched to fetch_k and admitted.
    bool priced = false;     // Both prices were trusted.
    bool explored = false;   // Admitted by the 1-in-16 tick sample.
    uint32_t fetch_k = 0;
    double reuse = 0.0;      // Decayed serves/admits the rule used.
    double miss_ms = 0.0;    // c_k: mean simulated ms of a plain-k miss.
    double fill_ms = 0.0;    // c_K: mean simulated ms of an over-fetch.
    double saving = 0.0;
    double extra = 0.0;
  };
  Admission admission;
};

namespace serving {

// Result-cache metrics, registered once in MetricsRegistry::Global() and
// cached here (the ServingMetrics pattern).
struct ResultCacheMetrics {
  obs::Counter* hits_total;           // Exact / exhaustive hits.
  obs::Counter* near_hits_total;      // Triangle-inequality hits (p' != p).
  obs::Counter* misses_total;         // Fell through to the planner.
  obs::Counter* invalidations_total;  // Entries rejected for a stale epoch.
  obs::Counter* admitted_total;       // Entries (re)filled after a miss.
  obs::Counter* evictions_total;      // LRU evictions under capacity.
  obs::Counter* skipped_total;        // Misses run at k, nothing admitted.
};

const ResultCacheMetrics& DefaultResultCacheMetrics();

struct ResultCacheOptions {
  // Entry capacity across all stripes; an insert past it evicts the least
  // recently touched keyword set (entry and its EWMA state together).
  size_t max_entries = 1024;
};

class ResultCache {
 public:
  explicit ResultCache(ResultCacheOptions options = ResultCacheOptions());

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  // Canonical key of a (normalized) keyword list: the keywords sorted and
  // joined. A caller making several calls for one request builds it once
  // and passes it to the keyed forms below.
  static std::string Key(const std::vector<std::string>& keywords);

  // Attempts to answer `q` from the cache. `q.keywords` must already be in
  // canonical normalized form — the facade hoists normalization so the key
  // and every shard leg share it. `epoch` is the caller's current mutation
  // epoch; entries filled under a different epoch are rejected and
  // dropped. On a provable hit, fills *out with the exact top-k'
  // (re-ranked around q.point, sorted by (distance, object id, ref)),
  // credits a serve to the entry's admission bucket and returns true.
  // `check` (optional) receives the reuse decision either way.
  bool TryServe(const std::string& key, const DistanceFirstQuery& q,
                uint64_t epoch, std::vector<QueryResult>* out,
                CacheReuseCheck* check);
  bool TryServe(const DistanceFirstQuery& q, uint64_t epoch,
                std::vector<QueryResult>* out, CacheReuseCheck* check) {
    return TryServe(Key(q.keywords), q, epoch, out, check);
  }

  // Admission decision after a miss: the K > q.k this keyword set should be
  // over-fetched to and admitted at, or 0 when the query is not cacheable
  // (an area or max_distance query, or k = 0) or when the priced rule says
  // skip (counted in Stats::skipped; the miss then runs at k and admits
  // nothing). Hot keyword sets (per-set EWMA) earn a larger K. `admission`
  // (optional) receives the decision with both prices.
  uint32_t OverfetchK(const std::string& key, const DistanceFirstQuery& q,
                      CacheReuseCheck::Admission* admission);
  uint32_t OverfetchK(const DistanceFirstQuery& q) {
    return OverfetchK(Key(q.keywords), q, nullptr);
  }

  // Prices the admission rule: the simulated disk ms of one executed miss,
  // over-fetched (`overfetched`, updates c_K) or plain at k (updates c_k).
  void RecordMissCost(bool overfetched, double simulated_disk_ms);

  // Stores the over-fetched answer for `q` (the same normalized query given
  // to OverfetchK, still with its original k; `fetched_k` is the K actually
  // executed) and counts an admission in its set's EWMA bucket. `results`
  // is the exact top-fetched_k; fewer than fetched_k results means the
  // database holds fewer matches, making the entry exhaustive. `epoch`
  // must be the epoch captured before the query ran, so a mutation racing
  // the fill leaves a stale (rejectable) entry, never a wrong one.
  void Admit(const std::string& key, const DistanceFirstQuery& q,
             uint32_t fetched_k, uint64_t epoch,
             std::span<const QueryResult> results);
  void Admit(const DistanceFirstQuery& q, uint32_t fetched_k, uint64_t epoch,
             std::span<const QueryResult> results) {
    Admit(Key(q.keywords), q, fetched_k, epoch, results);
  }

  // Drops every entry, its EWMA state, the reuse ledger and both prices —
  // a full reset (result_cache_test).
  void Clear();

  // Point-in-time totals for /statusz, /cachez and tests.
  struct Stats {
    uint64_t hits = 0;
    uint64_t near_hits = 0;
    uint64_t misses = 0;
    uint64_t invalidations = 0;
    uint64_t admitted = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;         // Slots currently holding an answer.
    uint64_t cached_results = 0;  // Objects held across those entries.
    uint64_t ticks = 0;           // Requests seen (EWMA clock).
    uint64_t skipped = 0;         // Misses the priced rule ran at k.
    // The admission ledger: both prices (0 until measured) and one row per
    // EWMA bucket.
    bool has_miss_ms = false;
    bool has_fill_ms = false;
    double miss_ms = 0.0;  // c_k.
    double fill_ms = 0.0;  // c_K.
    struct BucketRow {
      double ewma_from = 0.0;  // Lower EWMA bound of the bucket.
      double admits = 0.0;     // Decayed admissions.
      double serves = 0.0;     // Decayed hits and near hits.
      bool overfetch = true;   // Current decision, exploration aside.
    };
    std::vector<BucketRow> buckets;
    double HitRate() const {
      const uint64_t total = hits + near_hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits + near_hits) /
                              static_cast<double>(total);
    }
  };
  Stats GetStats() const;

  // One keyword set's row for /cachez: admission state plus the cached
  // ball, hottest first.
  struct EntryRow {
    std::string key;       // Canonical keywords, space-joined.
    double ewma = 0.0;
    uint64_t last_tick = 0;
    bool has_entry = false;
    uint64_t cached_results = 0;  // K actually held.
    double radius = 0.0;          // r_K.
    bool exhaustive = false;
    uint64_t epoch = 0;
  };
  std::vector<EntryRow> Table(size_t limit = 64) const;


 private:
  struct Entry {
    Point center;
    std::vector<QueryResult> objects;  // Sorted by (distance, id, ref).
    double radius = 0.0;               // Distance of the last object.
    bool exhaustive = false;
    uint64_t epoch = 0;
    uint32_t bucket = 0;  // EWMA bucket at admission; credited on serves.
  };
  struct Slot {
    double ewma = 0.0;
    uint64_t last_tick = 0;
    std::unique_ptr<Entry> entry;
    // Position in the stripe's LRU list (most recent at front).
    std::list<std::string>::iterator lru_it;
  };
  struct Stripe {
    mutable std::mutex mu;
    std::list<std::string> lru;
    std::unordered_map<std::string, Slot> slots;
  };

  // One EWMA bucket of the reuse ledger: decayed admissions and serves,
  // both decayed to `last_tick`, plus the undecayed admission count that
  // gates trust in the ratio.
  struct Bucket {
    double admits = 0.0;
    double serves = 0.0;
    uint64_t last_tick = 0;
    uint64_t lifetime_admits = 0;
  };
  // A running mean of one miss price.
  struct Price {
    double mean = 0.0;
    uint64_t samples = 0;
  };

  Stripe& StripeFor(const std::string& key);
  // Finds or creates the slot, decays + bumps its EWMA at `tick`, and
  // refreshes LRU position; evicts the coldest slot when over capacity.
  // Caller holds stripe.mu.
  Slot& TouchSlot(Stripe& stripe, const std::string& key, uint64_t tick);
  double DecayedEwma(const Slot& slot, uint64_t tick) const;
  // `bucket` with its serves and admits decayed to `tick`.
  static Bucket Decayed(Bucket bucket, uint64_t tick);
  // The priced rule for bucket `b` at `tick`, exploration aside: fills the
  // prices, reuse, saving and extra of *admission and returns whether to
  // over-fetch. Caller holds ledger_mu_.
  bool PricedOverfetch(uint32_t b, uint64_t tick,
                       CacheReuseCheck::Admission* admission) const;

  ResultCacheOptions options_;
  size_t per_stripe_capacity_ = 0;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::atomic<uint64_t> tick_{0};

  // The admission ledger: one bucket per log2 EWMA band and the two miss
  // prices. Taken after (never while holding) a stripe lock.
  mutable std::mutex ledger_mu_;
  std::vector<Bucket> buckets_;
  Price miss_price_;  // c_k.
  Price fill_price_;  // c_K.

  // Totals (relaxed atomics; exactness across stripes is not required).
  mutable std::atomic<uint64_t> hits_{0};
  mutable std::atomic<uint64_t> near_hits_{0};
  mutable std::atomic<uint64_t> misses_{0};
  mutable std::atomic<uint64_t> invalidations_{0};
  mutable std::atomic<uint64_t> admitted_{0};
  mutable std::atomic<uint64_t> evictions_{0};
  mutable std::atomic<uint64_t> skipped_{0};
};

// Appends a "Result cache" EXPLAIN section showing the reuse inequality's
// actual numbers (d'_k' < r_K - dist(p, p')), the verdict and, on a miss,
// the admission decision with both prices.
void AddCacheReuseSection(obs::ExplainReport* report,
                          const CacheReuseCheck& check);

// Appends `"skipped":N,"admission":{...}` — the skip count, both prices
// and the per-bucket ledger — to a JSON object body. Shared by /statusz
// and /cachez.
void AppendAdmissionJson(std::string* out, const ResultCache::Stats& stats);

// /cachez payload renderer, split from the endpoint so the JSON shape can
// be pinned by a byte-exact golden over constructed inputs.
std::string RenderCachezJson(const ResultCache::Stats& stats,
                             const std::vector<ResultCache::EntryRow>& rows,
                             uint64_t mutation_epoch);

}  // namespace serving
}  // namespace ir2

#endif  // IR2TREE_SERVING_RESULT_CACHE_H_
