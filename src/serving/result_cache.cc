#include "serving/result_cache.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <utility>

#include "geo/point.h"
#include "geo/rect.h"
#include "obs/trace.h"

namespace ir2 {
namespace serving {

namespace {

// Internal key separator: cannot occur in normalized keywords (the
// tokenizer strips control characters).
constexpr char kKeySep = '\x1f';

// Lock striping width.
constexpr uint32_t kNumStripes = 8;
// EWMA decay constant in request ticks: a set's frequency halves every
// kEwmaTau * ln 2 requests of silence.
constexpr double kEwmaTau = 256.0;
// Over-fetch policy: K = clamp(ceil(k * factor), k + kMinOverfetch,
// k + kMaxOverfetch), with hot sets (EWMA >= kHotEwma) using kHotFactor.
// A wider K costs more at fill but widens the reusable ball
// (r_K - dist(p, p')) for every later perturbed repeat.
constexpr double kOverfetchFactor = 2.0;
constexpr double kHotFactor = 4.0;
constexpr double kHotEwma = 4.0;
constexpr uint32_t kMinOverfetch = 4;
constexpr uint32_t kMaxOverfetch = 256;
// Admission ledger. Bucket b holds the sets whose EWMA at admission lay in
// [2^b, 2^(b+1)) (bucket 0 also takes EWMA < 1, the last is open-ended);
// its serves and admits decay with time constant kLedgerTau ticks, so the
// reuse estimate follows the traffic. A bucket's ratio is trusted once it
// has kMinLedgerAdmits admissions (until then the whole ledger's ratio
// stands in for it, and until the ledger has that many every miss
// over-fetches); a miss on a tick divisible by
// kExploreEvery over-fetches and admits whatever the rule says.
constexpr uint32_t kNumBuckets = 6;
constexpr double kLedgerTau = 1024.0;
constexpr uint64_t kMinLedgerAdmits = 32;
constexpr uint64_t kExploreEvery = 16;
// Each price is the mean of its first kPriceWindow samples, then an
// exponential mean with that window; c_k is trusted once it is full.
constexpr uint64_t kPriceWindow = 256;

uint32_t BucketOf(double ewma) {
  uint32_t bucket = 0;
  while (bucket + 1 < kNumBuckets && ewma >= std::ldexp(1.0, bucket + 1)) {
    ++bucket;
  }
  return bucket;
}

// The cached order and the re-rank order are both the global merge order
// of the sharded tier: (distance, object id, ref) ascending. Keeping one
// total order everywhere is what makes "top-k' is a prefix of top-K" true.
bool ResultLess(const QueryResult& a, const QueryResult& b) {
  if (a.distance != b.distance) return a.distance < b.distance;
  if (a.object_id != b.object_id) return a.object_id < b.object_id;
  return a.ref < b.ref;
}

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

}  // namespace

const ResultCacheMetrics& DefaultResultCacheMetrics() {
  static const ResultCacheMetrics metrics = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::Global();
    ResultCacheMetrics m;
    m.hits_total = r.GetCounter(
        "ir2_result_cache_hits_total",
        "Result-cache hits (exact repeats and exhaustive entries)");
    m.near_hits_total = r.GetCounter(
        "ir2_result_cache_near_hits_total",
        "Result-cache hits proved by the triangle inequality (shifted p')");
    m.misses_total = r.GetCounter(
        "ir2_result_cache_misses_total",
        "Result-cache lookups that fell through to the planner");
    m.invalidations_total = r.GetCounter(
        "ir2_result_cache_invalidations_total",
        "Cached entries rejected because the mutation epoch moved");
    m.admitted_total = r.GetCounter(
        "ir2_result_cache_admitted_total",
        "Over-fetched answers admitted into the result cache");
    m.evictions_total = r.GetCounter(
        "ir2_result_cache_evictions_total",
        "Keyword sets evicted from the result cache LRU");
    m.skipped_total = r.GetCounter(
        "ir2_result_cache_skipped_total",
        "Result-cache misses run at k and not admitted (reuse does not pay)");
    return m;
  }();
  return metrics;
}

ResultCache::ResultCache(ResultCacheOptions options)
    : options_(options), buckets_(kNumBuckets) {
  if (options_.max_entries == 0) options_.max_entries = 1;
  const uint32_t stripes = static_cast<uint32_t>(
      std::min<size_t>(kNumStripes, options_.max_entries));
  per_stripe_capacity_ = (options_.max_entries + stripes - 1) / stripes;
  stripes_.reserve(stripes);
  for (uint32_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
}

std::string ResultCache::Key(const std::vector<std::string>& keywords) {
  std::vector<std::string> sorted = keywords;
  std::sort(sorted.begin(), sorted.end());
  std::string key;
  for (const std::string& keyword : sorted) {
    if (!key.empty()) key.push_back(kKeySep);
    key += keyword;
  }
  return key;
}

ResultCache::Stripe& ResultCache::StripeFor(const std::string& key) {
  const size_t hash = std::hash<std::string>{}(key);
  return *stripes_[hash % stripes_.size()];
}

double ResultCache::DecayedEwma(const Slot& slot, uint64_t tick) const {
  if (slot.last_tick == 0 || tick <= slot.last_tick) return slot.ewma;
  const double dt = static_cast<double>(tick - slot.last_tick);
  return slot.ewma * std::exp(-dt / kEwmaTau);
}

ResultCache::Bucket ResultCache::Decayed(Bucket bucket, uint64_t tick) {
  if (tick <= bucket.last_tick) return bucket;
  const double decay =
      std::exp(-static_cast<double>(tick - bucket.last_tick) / kLedgerTau);
  bucket.admits *= decay;
  bucket.serves *= decay;
  bucket.last_tick = tick;
  return bucket;
}

bool ResultCache::PricedOverfetch(uint32_t b, uint64_t tick,
                                  CacheReuseCheck::Admission* admission) const {
  Bucket ledger = Decayed(buckets_[b], tick);
  if (ledger.lifetime_admits < kMinLedgerAdmits) {
    // Too few admissions of its own to trust: judge the bucket by the
    // whole ledger.
    ledger = Bucket();
    for (const Bucket& bucket : buckets_) {
      const Bucket decayed = Decayed(bucket, tick);
      ledger.admits += decayed.admits;
      ledger.serves += decayed.serves;
      ledger.lifetime_admits += decayed.lifetime_admits;
    }
  }
  // c_k is trusted only once its window is full: over-fetching freezes
  // it, so a noisy early c_k at or above c_K would never be corrected.
  admission->priced =
      miss_price_.samples >= kPriceWindow && fill_price_.samples > 0;
  admission->miss_ms = miss_price_.mean;
  admission->fill_ms = fill_price_.mean;
  admission->reuse =
      ledger.admits > 0.0 ? ledger.serves / ledger.admits : 0.0;
  admission->saving = admission->reuse * admission->miss_ms;
  admission->extra = admission->fill_ms - admission->miss_ms;
  // No fill priced yet, or too few admissions anywhere to trust a ratio:
  // keep over-fetching.
  if (fill_price_.samples == 0 || ledger.lifetime_admits < kMinLedgerAdmits) {
    return true;
  }
  if (!admission->priced) {
    // c_k is not trusted yet. Any c_k < c_K makes over-fetch cost
    // something, so only a ledger that shows no reuse is sure to lose by
    // it; skipping there also measures c_k. "No reuse" is below the
    // ledger's resolution, one serve per kMinLedgerAdmits admissions, so
    // a stray early hit cannot keep c_k unmeasured.
    return admission->reuse * static_cast<double>(kMinLedgerAdmits) >= 1.0 ||
           fill_price_.mean <= 0.0;
  }
  return admission->saving >= admission->extra;
}

ResultCache::Slot& ResultCache::TouchSlot(Stripe& stripe,
                                          const std::string& key,
                                          uint64_t tick) {
  auto it = stripe.slots.find(key);
  if (it == stripe.slots.end()) {
    if (stripe.slots.size() >= per_stripe_capacity_) {
      // Evict the least recently touched keyword set — entry and EWMA
      // admission state together. A set hot enough to matter re-earns its
      // frequency; a cold one should not pin capacity.
      const std::string victim = stripe.lru.back();
      stripe.lru.pop_back();
      stripe.slots.erase(victim);
      evictions_.fetch_add(1, std::memory_order_relaxed);
      DefaultResultCacheMetrics().evictions_total->Add();
    }
    stripe.lru.push_front(key);
    Slot fresh;
    fresh.lru_it = stripe.lru.begin();
    it = stripe.slots.emplace(key, std::move(fresh)).first;
  } else {
    stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second.lru_it);
  }
  Slot& slot = it->second;
  slot.ewma = DecayedEwma(slot, tick) + 1.0;
  slot.last_tick = tick;
  return slot;
}

bool ResultCache::TryServe(const std::string& key,
                           const DistanceFirstQuery& q, uint64_t epoch,
                           std::vector<QueryResult>* out,
                           CacheReuseCheck* check) {
  const ResultCacheMetrics& metrics = DefaultResultCacheMetrics();
  CacheReuseCheck local;
  bool served = false;
  uint32_t served_bucket = 0;
  uint64_t tick = 0;
  if (!q.area.has_value() && !q.max_distance.has_value() && q.k > 0) {
    tick = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    const Rect target = q.Target();
    Stripe& stripe = StripeFor(key);
    std::lock_guard<std::mutex> lock(stripe.mu);
    Slot& slot = TouchSlot(stripe, key, tick);
    Entry* entry = slot.entry.get();
    if (entry != nullptr) {
      local.attempted = true;
      if (entry->epoch != epoch) {
        // The trees mutated since the fill: the entry may be missing new
        // objects or holding deleted ones. Reject and drop it.
        local.stale = true;
        slot.entry.reset();
        invalidations_.fetch_add(1, std::memory_order_relaxed);
        metrics.invalidations_total->Add();
      } else {
        local.cached_results = entry->objects.size();
        local.cached_radius = entry->radius;
        const double shift = Distance(entry->center, q.point);
        local.center_shift = shift;
        local.exhaustive = entry->exhaustive;
        if (entry->exhaustive) {
          // The entry is the complete match set; any (p', k') re-rank over
          // it is exact by definition.
          local.hit = true;
          local.exact = shift == 0.0;
        } else if (shift == 0.0 && q.k <= entry->objects.size()) {
          // Same center: the cached list is the same total order's prefix.
          local.hit = true;
          local.exact = true;
        } else if (q.k <= entry->objects.size()) {
          // Shifted center: prove the k'-th re-ranked distance with the
          // triangle inequality. STRICT — an object tied at exactly r_K
          // may have lost the K-th slot on object id and be absent.
          std::vector<QueryResult> ranked = entry->objects;
          for (QueryResult& r : ranked) {
            r.distance = target.MinDist(r.location);
            r.score = -r.distance;
          }
          std::sort(ranked.begin(), ranked.end(), ResultLess);
          local.kth_distance = ranked[q.k - 1].distance;
          if (local.kth_distance < entry->radius - shift) {
            local.hit = true;
            ranked.resize(q.k);
            *out = std::move(ranked);
            served = true;
          }
        }
        if (local.hit && !served) {
          // Exact/exhaustive service: re-rank (identical distances for the
          // exact case — same MinDist code path) and take the prefix.
          std::vector<QueryResult> ranked = entry->objects;
          if (shift != 0.0) {
            for (QueryResult& r : ranked) {
              r.distance = target.MinDist(r.location);
              r.score = -r.distance;
            }
            std::sort(ranked.begin(), ranked.end(), ResultLess);
          }
          if (ranked.size() > q.k) ranked.resize(q.k);
          *out = std::move(ranked);
          served = true;
        }
        served_bucket = entry->bucket;
      }
    }
  }
  if (served) {
    {
      std::lock_guard<std::mutex> lock(ledger_mu_);
      Bucket& bucket = buckets_[served_bucket];
      bucket = Decayed(bucket, tick);
      bucket.serves += 1.0;
    }
    if (local.exact || local.exhaustive) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      metrics.hits_total->Add();
    } else {
      near_hits_.fetch_add(1, std::memory_order_relaxed);
      metrics.near_hits_total->Add();
    }
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    metrics.misses_total->Add();
  }
  if (check != nullptr) *check = local;
  obs::TraceInstant(obs::SpanKind::kResultCache, served ? 1 : 0);
  return served;
}

uint32_t ResultCache::OverfetchK(const std::string& key,
                                 const DistanceFirstQuery& q,
                                 CacheReuseCheck::Admission* admission) {
  if (q.area.has_value() || q.max_distance.has_value() || q.k == 0) return 0;
  const uint64_t tick = tick_.load(std::memory_order_relaxed);
  double ewma = 0.0;
  {
    Stripe& stripe = StripeFor(key);
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.slots.find(key);
    if (it != stripe.slots.end()) ewma = DecayedEwma(it->second, tick);
  }
  CacheReuseCheck::Admission decision;
  decision.decided = true;
  decision.explored = tick % kExploreEvery == 0;
  {
    std::lock_guard<std::mutex> lock(ledger_mu_);
    decision.overfetch = PricedOverfetch(BucketOf(ewma), tick, &decision);
  }
  // The sample only matters where the rule says skip.
  decision.explored = decision.explored && !decision.overfetch;
  if (decision.overfetch || decision.explored) {
    decision.overfetch = true;
    const double factor = ewma >= kHotEwma ? kHotFactor : kOverfetchFactor;
    uint64_t fetch_k =
        static_cast<uint64_t>(std::ceil(static_cast<double>(q.k) * factor));
    fetch_k = std::max<uint64_t>(fetch_k,
                                 static_cast<uint64_t>(q.k) + kMinOverfetch);
    fetch_k = std::min<uint64_t>(fetch_k,
                                 static_cast<uint64_t>(q.k) + kMaxOverfetch);
    decision.fetch_k = static_cast<uint32_t>(fetch_k);
  } else {
    skipped_.fetch_add(1, std::memory_order_relaxed);
    DefaultResultCacheMetrics().skipped_total->Add();
  }
  if (admission != nullptr) *admission = decision;
  return decision.fetch_k;
}

void ResultCache::RecordMissCost(bool overfetched, double simulated_disk_ms) {
  std::lock_guard<std::mutex> lock(ledger_mu_);
  Price& price = overfetched ? fill_price_ : miss_price_;
  ++price.samples;
  price.mean += (simulated_disk_ms - price.mean) /
                static_cast<double>(std::min(price.samples, kPriceWindow));
}

void ResultCache::Admit(const std::string& key, const DistanceFirstQuery& q,
                        uint32_t fetched_k, uint64_t epoch,
                        std::span<const QueryResult> results) {
  if (q.area.has_value() || q.max_distance.has_value() || q.k == 0 ||
      fetched_k <= q.k) {
    return;
  }
  auto entry = std::make_unique<Entry>();
  entry->center = q.point;
  entry->objects.assign(results.begin(), results.end());
  // The engine already emits this order (distance stream / sharded merge);
  // sorting is a cheap guarantee against future callers.
  std::sort(entry->objects.begin(), entry->objects.end(), ResultLess);
  entry->radius = entry->objects.empty() ? 0.0 : entry->objects.back().distance;
  // Fewer results than requested means the database holds fewer matches:
  // the entry is the complete match set for this keyword conjunction.
  entry->exhaustive = entry->objects.size() < fetched_k;
  entry->epoch = epoch;

  const uint64_t tick = tick_.load(std::memory_order_relaxed);
  uint32_t bucket = 0;
  {
    Stripe& stripe = StripeFor(key);
    std::lock_guard<std::mutex> lock(stripe.mu);
    auto it = stripe.slots.find(key);
    Slot* slot = nullptr;
    if (it == stripe.slots.end()) {
      // The slot was evicted between the miss and the fill (hostile churn);
      // re-create it without bumping the EWMA — this request was already
      // counted by TryServe.
      slot = &TouchSlot(stripe, key, tick);
      slot->ewma -= 1.0;
    } else {
      stripe.lru.splice(stripe.lru.begin(), stripe.lru, it->second.lru_it);
      slot = &it->second;
    }
    bucket = BucketOf(DecayedEwma(*slot, tick));
    entry->bucket = bucket;
    slot->entry = std::move(entry);
  }
  {
    std::lock_guard<std::mutex> lock(ledger_mu_);
    Bucket& ledger = buckets_[bucket];
    ledger = Decayed(ledger, tick);
    ledger.admits += 1.0;
    ++ledger.lifetime_admits;
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  DefaultResultCacheMetrics().admitted_total->Add();
}

void ResultCache::Clear() {
  for (auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    stripe->slots.clear();
    stripe->lru.clear();
  }
  std::lock_guard<std::mutex> lock(ledger_mu_);
  buckets_.assign(kNumBuckets, Bucket());
  miss_price_ = Price();
  fill_price_ = Price();
}

ResultCache::Stats ResultCache::GetStats() const {
  Stats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.near_hits = near_hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  stats.admitted = admitted_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  stats.ticks = tick_.load(std::memory_order_relaxed);
  stats.skipped = skipped_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(ledger_mu_);
    stats.has_miss_ms = miss_price_.samples > 0;
    stats.has_fill_ms = fill_price_.samples > 0;
    stats.miss_ms = miss_price_.mean;
    stats.fill_ms = fill_price_.mean;
    for (uint32_t b = 0; b < kNumBuckets; ++b) {
      const Bucket bucket = Decayed(buckets_[b], stats.ticks);
      CacheReuseCheck::Admission unused;
      stats.buckets.push_back(Stats::BucketRow{
          b == 0 ? 0.0 : std::ldexp(1.0, b), bucket.admits, bucket.serves,
          PricedOverfetch(b, stats.ticks, &unused)});
    }
  }
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    for (const auto& [key, slot] : stripe->slots) {
      if (slot.entry != nullptr) {
        ++stats.entries;
        stats.cached_results += slot.entry->objects.size();
      }
    }
  }
  return stats;
}

std::vector<ResultCache::EntryRow> ResultCache::Table(size_t limit) const {
  const uint64_t tick = tick_.load(std::memory_order_relaxed);
  std::vector<EntryRow> rows;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    for (const auto& [key, slot] : stripe->slots) {
      EntryRow row;
      row.key = key;
      std::replace(row.key.begin(), row.key.end(), kKeySep, ' ');
      row.ewma = DecayedEwma(slot, tick);
      row.last_tick = slot.last_tick;
      if (slot.entry != nullptr) {
        row.has_entry = true;
        row.cached_results = slot.entry->objects.size();
        row.radius = slot.entry->radius;
        row.exhaustive = slot.entry->exhaustive;
        row.epoch = slot.entry->epoch;
      }
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end(), [](const EntryRow& a, const EntryRow& b) {
    if (a.ewma != b.ewma) return a.ewma > b.ewma;
    return a.key < b.key;
  });
  if (rows.size() > limit) rows.resize(limit);
  return rows;
}

namespace {

void AddAdmissionRow(obs::ExplainSection* section,
                     const CacheReuseCheck::Admission& admission) {
  if (!admission.decided) return;
  char buf[160];
  if (admission.overfetch) {
    std::snprintf(buf, sizeof(buf), "over-fetch to K = %u%s", admission.fetch_k,
                  admission.explored ? " (1-in-16 sample)" : "");
  } else {
    std::snprintf(buf, sizeof(buf), "skip (run at k, admit nothing)");
  }
  section->AddRow("admission", buf);
  if (!admission.priced) {
    std::snprintf(buf, sizeof(buf),
                  "serves/admits = %.4f; c_k and c_K not both measured yet",
                  admission.reuse);
    section->AddRow("admission prices", buf);
    return;
  }
  std::snprintf(buf, sizeof(buf),
                "serves/admits x c_k = %.4f x %.3f = %.3f ms %s "
                "c_K - c_k = %.3f - %.3f = %.3f ms",
                admission.reuse, admission.miss_ms, admission.saving,
                admission.saving >= admission.extra ? ">=" : "<",
                admission.fill_ms, admission.miss_ms, admission.extra);
  section->AddRow("admission prices", buf);
}

}  // namespace

void AddCacheReuseSection(obs::ExplainReport* report,
                          const CacheReuseCheck& check) {
  obs::ExplainSection* section = report->AddSection("Result cache");
  char buf[96];
  if (!check.attempted) {
    section->AddRow("verdict", "miss (no entry for this keyword set)");
    AddAdmissionRow(section, check.admission);
    return;
  }
  if (check.stale) {
    section->AddRow("verdict", "invalidated (mutation epoch moved)");
    AddAdmissionRow(section, check.admission);
    return;
  }
  section->AddRow("cached results (K)", obs::FormatCount(check.cached_results));
  std::snprintf(buf, sizeof(buf), "%.6f", check.cached_radius);
  section->AddRow("cached radius r_K", buf);
  std::snprintf(buf, sizeof(buf), "%.6f", check.center_shift);
  section->AddRow("center shift dist(p, p')", buf);
  if (check.exhaustive) {
    section->AddRow("reuse proof", "entry is exhaustive (every match cached)");
  } else if (check.exact) {
    section->AddRow("reuse proof", "exact center, k' <= K (prefix of the "
                                   "cached total order)");
  } else {
    std::snprintf(buf, sizeof(buf), "d'_k' = %.6f %s r_K - shift = %.6f",
                  check.kth_distance, check.hit ? "<" : ">=",
                  check.cached_radius - check.center_shift);
    section->AddRow("reuse inequality", buf);
  }
  section->AddRow("verdict", check.hit ? "hit (answered from cache, zero "
                                         "index I/O)"
                                       : "miss (inequality not provable)");
  AddAdmissionRow(section, check.admission);
}

void AppendAdmissionJson(std::string* out, const ResultCache::Stats& stats) {
  *out += "\"skipped\":" + std::to_string(stats.skipped);
  *out += ",\"admission\":{\"miss_ms\":";
  *out += stats.has_miss_ms ? FormatDouble(stats.miss_ms) : "null";
  *out += ",\"fill_ms\":";
  *out += stats.has_fill_ms ? FormatDouble(stats.fill_ms) : "null";
  *out += ",\"buckets\":[";
  for (size_t i = 0; i < stats.buckets.size(); ++i) {
    const ResultCache::Stats::BucketRow& row = stats.buckets[i];
    if (i > 0) *out += ",";
    *out += "{\"ewma_from\":" + FormatDouble(row.ewma_from);
    *out += ",\"admits\":" + FormatDouble(row.admits);
    *out += ",\"serves\":" + FormatDouble(row.serves);
    *out += ",\"decision\":";
    *out += row.overfetch ? "\"overfetch\"" : "\"skip\"";
    *out += "}";
  }
  *out += "]}";
}

std::string RenderCachezJson(const ResultCache::Stats& stats,
                             const std::vector<ResultCache::EntryRow>& rows,
                             uint64_t mutation_epoch) {
  std::string out = "{\"result_cache\":{";
  out += "\"entries\":" + std::to_string(stats.entries);
  out += ",\"cached_results\":" + std::to_string(stats.cached_results);
  out += ",\"hits\":" + std::to_string(stats.hits);
  out += ",\"near_hits\":" + std::to_string(stats.near_hits);
  out += ",\"misses\":" + std::to_string(stats.misses);
  out += ",\"invalidations\":" + std::to_string(stats.invalidations);
  out += ",\"admitted\":" + std::to_string(stats.admitted);
  out += ",\"evictions\":" + std::to_string(stats.evictions);
  out += ",\"requests\":" + std::to_string(stats.ticks);
  out += ",\"hit_rate\":" + FormatDouble(stats.HitRate());
  out += ",\"mutation_epoch\":" + std::to_string(mutation_epoch);
  out += ",\"keyword_sets\":[";
  for (size_t i = 0; i < rows.size(); ++i) {
    const ResultCache::EntryRow& row = rows[i];
    if (i > 0) out += ",";
    out += "{\"keywords\":";
    AppendJsonString(&out, row.key);
    out += ",\"ewma\":" + FormatDouble(row.ewma);
    out += ",\"last_tick\":" + std::to_string(row.last_tick);
    out += ",\"cached\":";
    out += row.has_entry ? "true" : "false";
    out += ",\"cached_results\":" + std::to_string(row.cached_results);
    out += ",\"radius\":" + FormatDouble(row.radius);
    out += ",\"exhaustive\":";
    out += row.exhaustive ? "true" : "false";
    out += ",\"epoch\":" + std::to_string(row.epoch);
    out += "}";
  }
  out += "],";
  AppendAdmissionJson(&out, stats);
  out += "}}";
  return out;
}

}  // namespace serving
}  // namespace ir2
