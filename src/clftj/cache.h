#ifndef CLFTJ_CLFTJ_CACHE_H_
#define CLFTJ_CLFTJ_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/common.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/packed_key.h"
#include "util/stats.h"

namespace clftj {

/// Caching policy knobs for CLFTJ (Sections 3.4 and 5.3.3 of the paper).
/// The cache size can be bounded *dynamically*: capacity is a global entry
/// budget shared by all per-node caches, which is what lets CLFTJ keep
/// LFTJ's bounded-memory property while still exploiting whatever memory is
/// available.
struct CacheOptions {
  /// Master switch; disabled turns CLFTJ into plain LFTJ on the same order.
  bool enabled = true;

  /// Admission policy of line 21 of Figure 2 ("should (α, µ|α) be
  /// cached?"): kAll caches every completed intermediate; kSupportThreshold
  /// caches only when every adhesion value has support (occurrence count in
  /// the base data) >= support_threshold — the paper's policy.
  enum class Admission { kAll, kSupportThreshold };
  Admission admission = Admission::kAll;
  std::uint64_t support_threshold = 0;

  /// Global bound on the number of cached entries (0 = unbounded).
  std::uint64_t capacity = 0;

  /// Global bound on cached *payload bytes* (0 = entry-count mode via
  /// `capacity`). Factorized-set payloads vary wildly in size, so "whatever
  /// memory is available" needs a byte budget, not an entry budget: each
  /// entry is charged CachePayloadBytes of its payload at insert time and
  /// credited back on eviction/replacement. Both bounds may be active; an
  /// insert must satisfy both.
  std::uint64_t capacity_bytes = 0;

  /// What to do on insert at capacity: reject the new entry, or evict the
  /// least recently used entry across all node caches.
  enum class Eviction { kRejectNew, kLru };
  Eviction eviction = Eviction::kLru;

  /// Stripe count of the StripedCacheManager that CLFTJ-P's workers share;
  /// 0 picks one from the worker count (see
  /// StripedCacheManager::ChooseStripes). Rounded up to a power of two and
  /// clamped so every stripe's share of a bounded budget is >= 1.
  int stripes = 0;

  /// Adhesions wider than this are never cached (the paper's implementation
  /// supports keys of up to two dimensions). Keys up to
  /// PackedKey::kInlineDims live entirely inside the table; wider keys take
  /// the interned spill path.
  int max_dimension = 2;

  /// One-line description for bench output.
  std::string ToString() const;
};

/// Payload byte accounting for the byte-budget mode
/// (CacheOptions::capacity_bytes). The generic fallback charges the value's
/// inline size — right for counters and semiring weights. Payloads owning
/// heap memory overload this in their own header (factorized.h charges a
/// FactorizedSetPtr its set's MemoryBytes); the overload is found by ADL at
/// CacheManager instantiation.
template <typename V>
inline std::uint64_t CachePayloadBytes(const V&) {
  return sizeof(V);
}

/// The shared cache of CLFTJ: (TD node, adhesion assignment) -> payload,
/// with a global entry budget and a global LRU chain. V is the payload:
/// std::uint64_t for counting, a factorized-set pointer for evaluation.
///
/// Layout: one open-addressing flat table (linear probing, power-of-two
/// capacity, load factor <= 1/2) whose slots hold only the key and the
/// payload — 32 bytes for a count, 40 for a factorized-set pointer. The
/// hash is not stored: it is recomputed from the key whenever an entry
/// moves (growth rehash, backward-shift deletion), and probes compare
/// node, width and key directly. Bounded caches (capacity or
/// capacity_bytes set) add a parallel recency array holding each slot's
/// payload charge and an intrusive doubly-linked LRU via 32-bit slot
/// indices; unbounded caches never read recency, so they never allocate
/// it. Deletion is tombstone-free (backward-shift), so probe sequences
/// never degrade under eviction churn. Per Lookup the hot path performs
/// zero heap allocations; an Insert allocates at most when the table grows
/// (doubling rehash). Keys wider than PackedKey::kInlineDims are interned
/// into a value arena (`spill path`); with the default max_dimension = 2
/// the arena is never touched.
template <typename V>
class CacheManager {
 public:
  /// A bounded cache presizes its table for at most this many entries; a
  /// larger entry budget grows the table by rehashing like an unbounded one.
  static constexpr std::uint64_t kMaxPresizeEntries = std::uint64_t{1} << 20;

  CacheManager(int num_nodes, const CacheOptions& options, ExecStats* stats)
      : options_(options),
        bounded_(options.capacity > 0),
        byte_bounded_(options.capacity_bytes > 0),
        lru_(bounded_ || byte_bounded_),
        stats_(stats) {
    (void)num_nodes;  // node ids are mixed into the key hash; no per-node maps
  }

  /// Returns the payload cached for (node, key), or nullptr. Counts a hit
  /// or miss; under a bounded capacity also refreshes LRU recency. The
  /// returned pointer is invalidated by the next Insert.
  const V* Lookup(NodeId node, PackedKey key) {
    const std::uint32_t i = FindSlot(node, key, HashKey(node, key));
    if (i == kNil) {
      ++stats_->cache_misses;
      return nullptr;
    }
    ++stats_->cache_hits;
    if (lru_) MoveToFront(i);
    return &slots_[i].value;
  }

  /// Inserts (node, key) -> value subject to the capacity policies (entry
  /// count and payload bytes — both must hold). Replaces an existing entry
  /// for the same key. Returns true when the entry resides in the table
  /// after the call, false when policy rejected it (callers layering a
  /// lock-free read cache on top must not publish rejected entries).
  bool Insert(NodeId node, PackedKey key, V value) {
    if (fault::Fire(fault::Site::kCacheInsert)) {
      // Injected allocation failure at the insert: caching is optional per
      // entry, so the correct degradation is to drop this entry — results
      // must stay bit-identical, only hit rates suffer.
      ++stats_->cache_rejects;
      return false;
    }
    const std::uint64_t hash = HashKey(node, key);
    const std::uint64_t need = byte_bounded_ ? CachePayloadBytes(value) : 0;
    if (byte_bounded_ && need > options_.capacity_bytes) {
      // Larger than the whole budget: no sequence of evictions can fit it.
      ++stats_->cache_rejects;
      return false;
    }
    const std::uint32_t existing = FindSlot(node, key, hash);
    if (existing != kNil) {
      if (byte_bounded_ &&
          options_.eviction == CacheOptions::Eviction::kRejectNew &&
          bytes_ - recency_[existing].bytes + need > options_.capacity_bytes) {
        // A grown replacement that no longer fits: keep the old payload.
        ++stats_->cache_rejects;
        return false;
      }
      if (byte_bounded_) {
        bytes_ += need - recency_[existing].bytes;
        recency_[existing].bytes = need;
      }
      slots_[existing].value = std::move(value);
      if (lru_) MoveToFront(existing);
      // A grown replacement can overshoot the byte budget: shed LRU entries
      // until it fits again. The refreshed entry is MRU by now, so it is
      // never the victim — and `existing` is not re-read below, which
      // matters because backward-shift deletion may physically move it.
      while (byte_bounded_ && bytes_ > options_.capacity_bytes && size_ > 1) {
        EraseSlot(lru_tail_);
        ++stats_->cache_evictions;
      }
      if (byte_bounded_) TrackBytePeak();
      return true;
    }
    while ((bounded_ && size_ >= options_.capacity) ||
           (byte_bounded_ && bytes_ + need > options_.capacity_bytes)) {
      if (options_.eviction == CacheOptions::Eviction::kRejectNew) {
        ++stats_->cache_rejects;
        return false;
      }
      EraseSlot(lru_tail_);  // evict globally least recently used
      ++stats_->cache_evictions;
    }
    EnsureSpace();
    InsertFresh(node, key, hash, std::move(value), need);
    ++stats_->cache_inserts;
    stats_->cache_entries_peak =
        std::max<std::uint64_t>(stats_->cache_entries_peak, size_);
    if (byte_bounded_) TrackBytePeak();
    return true;
  }

  /// Maintenance eviction for targeted invalidation (see
  /// docs/incremental.md): removes every entry for which pred(node, values,
  /// dims) returns true, where `values` are the entry's adhesion key values.
  /// Two-phase on purpose — backward-shift deletion physically moves slots,
  /// so the predicate pass collects doomed keys first and each key is then
  /// re-located and erased. A doomed key costs no allocation of its own:
  /// inline keys are copied by value, and wide keys borrow their arena
  /// segment, which erasing never rewrites (only an insert compacts the
  /// arena). Runs between queries, not on the hot path; not counted as
  /// capacity evictions. Returns the number of entries removed.
  template <typename Pred>
  std::size_t EvictIf(const Pred& pred) {
    std::vector<std::pair<NodeId, PackedKey>> doomed;
    for (const Slot& s : slots_) {
      if (!s.occupied()) continue;
      const PackedKey key = KeyOf(s, arena_.data());
      Value inline_values[PackedKey::kInlineDims] = {};
      const Value* values = inline_values;
      if (key.wide()) {
        values = key.wide_data();
      } else {
        if (s.dims >= 1) inline_values[0] = static_cast<Value>(s.lo);
        if (s.dims == 2) inline_values[1] = static_cast<Value>(s.hi);
      }
      if (pred(s.node, values, static_cast<int>(s.dims))) {
        doomed.emplace_back(s.node, key);
      }
    }
    for (const auto& [node, key] : doomed) {
      const std::uint32_t i = FindSlot(node, key, HashKey(node, key));
      if (i != kNil) EraseSlot(i);
    }
    return doomed.size();
  }

  /// Current number of entries across all node caches.
  std::size_t size() const { return size_; }

  /// Payload bytes currently charged against capacity_bytes (0 unless the
  /// byte budget is active).
  std::uint64_t payload_bytes() const { return bytes_; }

  /// Bytes the table itself holds resident: the slot array, the recency
  /// array (bounded caches only) and the wide-key arena. Payload heap
  /// (factorized sets) is not included; see payload_bytes.
  std::uint64_t resident_bytes() const {
    return slots_.capacity() * sizeof(Slot) +
           recency_.capacity() * sizeof(Recency) +
           arena_.capacity() * sizeof(Value);
  }

  /// Test observability: payloads in MRU -> LRU chain order (O(size)).
  /// Lets tests pin that recency survives rehash/backward-shift moves.
  /// Empty for an unbounded cache, which keeps no recency.
  std::vector<V> LruOrderForTest() const {
    std::vector<V> out;
    out.reserve(size_);
    for (std::uint32_t i = lru_head_; i != kNil; i = recency_[i].next) {
      out.push_back(slots_[i].value);
    }
    return out;
  }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::uint32_t kEmptyDims = 0xFFFFFFFFu;
  static constexpr std::size_t kMinSlots = 16;

  struct Slot {
    std::uint64_t lo = 0;  // inline values, or (wide) offset into arena_
    std::uint64_t hi = 0;
    NodeId node = kNone;
    std::uint32_t dims = kEmptyDims;  // kEmptyDims marks a free slot
    V value{};

    bool occupied() const { return dims != kEmptyDims; }
    bool wide() const {
      return occupied() &&
             dims > static_cast<std::uint32_t>(PackedKey::kInlineDims);
    }
  };
  static_assert(!std::is_same<V, std::uint64_t>::value || sizeof(Slot) == 32,
                "a count slot is exactly key + payload");

  /// Recency and payload charge of the slot at the same index; only
  /// bounded caches allocate this array.
  struct Recency {
    std::uint64_t bytes = 0;  // payload charge (byte-budget mode only)
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  std::uint64_t HashKey(NodeId node, PackedKey key) const {
    return key.Hash(HashCombine(0x2545f4914f6cdd1dull,
                                static_cast<std::uint64_t>(node)));
  }

  /// The stored key of an occupied slot; wide keys borrow from `arena`.
  static PackedKey KeyOf(const Slot& s, const Value* arena) {
    if (s.wide()) {
      return PackedKey::Pack(arena + s.lo, static_cast<int>(s.dims));
    }
    PackedKey key;
    key.lo = s.lo;
    key.hi = s.hi;
    key.dims = s.dims;
    return key;
  }

  std::uint64_t HashOf(const Slot& s) const {
    return HashKey(s.node, KeyOf(s, arena_.data()));
  }

  bool SlotMatches(const Slot& s, NodeId node, PackedKey key) const {
    if (s.node != node || s.dims != key.dims) return false;
    if (!key.wide()) return s.lo == key.lo && s.hi == key.hi;
    const Value* stored = arena_.data() + s.lo;
    const Value* probe = key.wide_data();
    for (std::uint32_t i = 0; i < key.dims; ++i) {
      if (stored[i] != probe[i]) return false;
    }
    return true;
  }

  /// Linear probe for an existing entry; kNil on miss. Charges one memory
  /// access per slot inspected (each slot is one contiguous record — this
  /// is the proxy the paper's memory-access metric counts).
  std::uint32_t FindSlot(NodeId node, PackedKey key, std::uint64_t hash) {
    if (slots_.empty()) {
      stats_->memory_accesses += 1;
      return kNil;
    }
    std::uint32_t i = static_cast<std::uint32_t>(hash & mask_);
    while (true) {
      stats_->memory_accesses += 1;
      const Slot& s = slots_[i];
      if (!s.occupied()) return kNil;
      if (SlotMatches(s, node, key)) return i;
      i = (i + 1) & mask_;
    }
  }

  // --- intrusive LRU over recency_ (front = most recently used) ---

  void Unlink(std::uint32_t i) {
    Recency& r = recency_[i];
    if (r.prev != kNil) {
      recency_[r.prev].next = r.next;
    } else {
      lru_head_ = r.next;
    }
    if (r.next != kNil) {
      recency_[r.next].prev = r.prev;
    } else {
      lru_tail_ = r.prev;
    }
    r.prev = r.next = kNil;
  }

  void LinkFront(std::uint32_t i) {
    Recency& r = recency_[i];
    r.prev = kNil;
    r.next = lru_head_;
    if (lru_head_ != kNil) recency_[lru_head_].prev = i;
    lru_head_ = i;
    if (lru_tail_ == kNil) lru_tail_ = i;
  }

  void MoveToFront(std::uint32_t i) {
    if (lru_head_ == i) return;
    Unlink(i);
    LinkFront(i);
  }

  /// Appends slot i at the LRU end (rehash re-links MRU-first).
  void LinkBack(std::uint32_t i) {
    Recency& r = recency_[i];
    r.prev = lru_tail_;
    r.next = kNil;
    if (lru_tail_ != kNil) recency_[lru_tail_].next = i;
    lru_tail_ = i;
    if (lru_head_ == kNil) lru_head_ = i;
  }

  /// An entry physically moved to slot `to` (backward shift): repoint its
  /// LRU neighbours (and head/tail) at the new index.
  void PatchLinksAfterMove(std::uint32_t to) {
    const Recency& r = recency_[to];
    if (r.prev != kNil) {
      recency_[r.prev].next = to;
    } else {
      lru_head_ = to;
    }
    if (r.next != kNil) {
      recency_[r.next].prev = to;
    } else {
      lru_tail_ = to;
    }
  }

  /// Tombstone-free deletion: unlink, clear, then backward-shift the probe
  /// chain so linear probing invariants hold without deleted markers.
  void EraseSlot(std::uint32_t i) {
    Slot& victim = slots_[i];
    if (victim.wide()) arena_live_ -= victim.dims;
    if (lru_) {
      Unlink(i);
      bytes_ -= recency_[i].bytes;
      recency_[i].bytes = 0;
    }
    victim.value = V{};
    victim.dims = kEmptyDims;
    --size_;
    std::uint32_t hole = i;
    std::uint32_t j = (i + 1) & mask_;
    while (slots_[j].occupied()) {
      const std::uint32_t ideal =
          static_cast<std::uint32_t>(HashOf(slots_[j]) & mask_);
      // j's entry may shift back into the hole only if its ideal slot is
      // cyclically at or before the hole (i.e. the hole lies on its probe
      // path).
      if (((j - ideal) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        slots_[j].value = V{};
        slots_[j].dims = kEmptyDims;
        if (lru_) {
          recency_[hole] = recency_[j];
          PatchLinksAfterMove(hole);
          recency_[j] = Recency{};
        }
        hole = j;
      }
      j = (j + 1) & mask_;
    }
  }

  // Max load factor 1/2: misses pay the full probe chain up to the next
  // empty slot, so the table trades memory for short chains (~1.5 probes
  // per hit, ~2.5 per miss in expectation, vs ~8.5 per miss at 3/4 load).
  void EnsureSpace() {
    if (slots_.empty()) {
      std::size_t want = kMinSlots;
      if (bounded_) {
        // Size bounded caches for their full budget up front (capped so a
        // huge nominal budget does not preallocate the world).
        const std::uint64_t budget =
            std::min<std::uint64_t>(options_.capacity, kMaxPresizeEntries);
        while (want < budget * 2) want <<= 1;
      }
      slots_.assign(want, Slot{});
      if (lru_) recency_.assign(want, Recency{});
      mask_ = want - 1;
      return;
    }
    if ((size_ + 1) * 2 > slots_.size()) Rehash(slots_.size() * 2);
  }

  std::uint32_t FindEmpty(std::uint64_t hash) const {
    std::uint32_t i = static_cast<std::uint32_t>(hash & mask_);
    while (slots_[i].occupied()) i = (i + 1) & mask_;
    return i;
  }

  void TrackBytePeak() {
    stats_->cache_bytes_peak =
        std::max<std::uint64_t>(stats_->cache_bytes_peak, bytes_);
  }

  void InsertFresh(NodeId node, PackedKey key, std::uint64_t hash, V value,
                   std::uint64_t payload_bytes) {
    // Spill path: compact first if eviction churn left the arena mostly
    // garbage (bounded caches never rehash in steady state, so this is
    // their reclamation point). It runs before the new slot is claimed,
    // because compaction rewrites every occupied wide slot.
    if (key.wide() && arena_.size() > 2 * arena_live_ + 64) CompactArena();
    const std::uint32_t i = FindEmpty(hash);
    Slot& s = slots_[i];
    s.node = node;
    s.dims = key.dims;
    if (key.wide()) {
      // Intern the borrowed values.
      s.lo = arena_.size();
      s.hi = 0;
      arena_.insert(arena_.end(), key.wide_data(), key.wide_data() + key.dims);
      arena_live_ += key.dims;
      stats_->memory_accesses += key.dims;
    } else {
      s.lo = key.lo;
      s.hi = key.hi;
    }
    s.value = std::move(value);
    if (lru_) {
      recency_[i].bytes = payload_bytes;
      bytes_ += payload_bytes;
      LinkFront(i);
    }
    ++size_;
    stats_->memory_accesses += 1;
  }

  /// Doubling rehash; wide-key arena segments are compacted into a fresh
  /// arena as a side effect. An unbounded table re-inserts in slot order.
  /// A bounded one walks the LRU chain MRU->LRU and re-links in order, so
  /// recency survives growth.
  void Rehash(std::size_t new_slot_count) {
    std::vector<Slot> old = std::move(slots_);
    std::vector<Recency> old_recency = std::move(recency_);
    slots_.assign(new_slot_count, Slot{});
    if (lru_) recency_.assign(new_slot_count, Recency{});
    mask_ = new_slot_count - 1;
    std::vector<Value> old_arena = std::move(arena_);
    arena_.clear();
    arena_.reserve(arena_live_);
    const auto move_entry = [&](Slot& s) {
      const std::uint32_t j =
          FindEmpty(HashKey(s.node, KeyOf(s, old_arena.data())));
      Slot& t = slots_[j];
      t.node = s.node;
      t.dims = s.dims;
      if (s.wide()) {
        t.lo = arena_.size();
        t.hi = 0;
        arena_.insert(arena_.end(), old_arena.data() + s.lo,
                      old_arena.data() + s.lo + s.dims);
      } else {
        t.lo = s.lo;
        t.hi = s.hi;
      }
      t.value = std::move(s.value);
      return j;
    };
    if (!lru_) {
      for (Slot& s : old) {
        if (s.occupied()) move_entry(s);
      }
      return;
    }
    const std::uint32_t old_head = lru_head_;
    lru_head_ = lru_tail_ = kNil;
    for (std::uint32_t i = old_head; i != kNil; i = old_recency[i].next) {
      const std::uint32_t j = move_entry(old[i]);
      recency_[j].bytes = old_recency[i].bytes;
      LinkBack(j);  // the walk is MRU-first, so order is preserved
    }
  }

  /// Rewrites the arena with only live segments, updating slot offsets.
  void CompactArena() {
    std::vector<Value> fresh;
    fresh.reserve(arena_live_);
    for (Slot& s : slots_) {
      if (!s.wide()) continue;
      const std::uint64_t offset = fresh.size();
      fresh.insert(fresh.end(), arena_.data() + s.lo,
                   arena_.data() + s.lo + s.dims);
      s.lo = offset;
    }
    arena_ = std::move(fresh);
  }

  CacheOptions options_;
  bool bounded_;
  bool byte_bounded_;
  bool lru_;  // bounded by entries or bytes: recency_ is live
  ExecStats* stats_;
  std::vector<Slot> slots_;
  std::vector<Recency> recency_;  // parallel to slots_; empty unless lru_
  std::vector<Value> arena_;      // interned wide-key values (spill path)
  std::size_t arena_live_ = 0;    // values in arena_ owned by live entries
  std::uint64_t bytes_ = 0;       // payload bytes charged to capacity_bytes
  std::uint64_t mask_ = 0;
  std::uint32_t lru_head_ = kNil;  // most recently used
  std::uint32_t lru_tail_ = kNil;  // least recently used
  std::size_t size_ = 0;
};

namespace cache_internal {

/// Atomic payload cell for the hot-slot read path (see StripedCacheManager).
/// Trivially copyable payloads (count mode's uint64_t) are a plain
/// std::atomic; shared_ptr payloads (eval mode's FactorizedSetPtr) go
/// through the std::atomic_load/atomic_store free functions — libstdc++
/// backs those with a small mutex pool, which is TSan-instrumented and
/// never held across user code, so the read path stays wait-free in
/// practice for counts and lock-brief for pointers.
template <typename V, bool kTrivial = std::is_trivially_copyable<V>::value>
struct HotPayload;

template <typename V>
struct HotPayload<V, true> {
  std::atomic<V> cell{};
  V load() const { return cell.load(std::memory_order_acquire); }
  void store(const V& v) { cell.store(v, std::memory_order_release); }
};

template <typename V>
struct HotPayload<V, false> {
  V cell{};
  V load() const {
    return std::atomic_load_explicit(&cell, std::memory_order_acquire);
  }
  void store(const V& v) {
    std::atomic_store_explicit(&cell, v, std::memory_order_release);
  }
};

}  // namespace cache_internal

/// The shared cache of CLFTJ-P: one logical (node, adhesion key) -> payload
/// table that all workers of a parallel run probe and fill, so a subtree
/// computed for any morsel is a hit for every other — the reuse that
/// per-worker private caches cannot provide.
///
/// Layout: S lock-striped segments, each an independent CacheManager (the
/// flat open-addressing table, with LRU recency when bounded) behind its
/// own mutex, with its own ExecStats sink and a per-stripe slice of the global
/// entry/byte budget (slices sum exactly to the global budget). A key's
/// stripe is chosen from the *top* bits of the same (node, key) hash the
/// segment table indexes with its *bottom* bits, so striping never skews a
/// segment's probe distribution. Eviction is LRU per stripe: recency is
/// local to a segment, which is what keeps a cache call one mutex + one
/// flat-table operation instead of a globally ordered structure.
///
/// Concurrency contract: Lookup copies the payload out under the stripe
/// mutex (a pointer into a slot would dangle the moment another worker
/// inserts), and Insert publishes under the same mutex, so a payload
/// frozen-before-insert is safely readable by every other thread. Stats
/// are charged to the owning stripe (hits, misses, probe memory accesses,
/// evictions, peaks) and aggregated deterministically in ascending stripe
/// order by AggregatedStats after the workers join.
///
/// Hot-slot read path (`hot_reads` in the constructor; used by the
/// persistent per-shape caches, see docs/serving.md "Batch admission"):
/// each stripe carries a small direct-mapped side array of seqlock-
/// published entries. A successful Insert and a locked Lookup hit publish
/// the (key, payload) into the hot slot for its hash; subsequent Lookups
/// probe the hot slot *before* taking the stripe mutex and return on a
/// stable match, so batch members polling the same hot subtree never
/// serialize. Every hot-slot field is individually atomic (the seq check
/// only guards against a *mixed* snapshot from two writes), writers are
/// already serialized by the stripe mutex, and wide keys are never
/// published. A hot hit bumps only the stripe's atomic hot_hits, which
/// AggregatedStats folds into cache_hits and memory_accesses (one slot
/// inspected); it skips the LRU refresh (recency becomes approximate for
/// hot keys — acceptable for the persistent caches, which are the only
/// users). EvictIf clears a stripe's hot slots so targeted invalidation
/// cannot leave a deleted entry readable. An entry evicted by *capacity* churn may linger in a
/// hot slot: that is safe, because cached payloads are deterministic per
/// (generation, key) — serving one is bit-identical to recomputing it.
template <typename V>
class StripedCacheManager {
 public:
  /// `workers` sizes the auto stripe count; `options` carries the *global*
  /// budget (split across stripes here — callers must not pre-divide).
  /// `hot_reads` engages the lock-free hot-slot read path above.
  StripedCacheManager(int num_nodes, const CacheOptions& options, int workers,
                      bool hot_reads = false)
      : stripe_shift_(0), hot_reads_(hot_reads) {
    const int count = ChooseStripes(options, workers);
    for (int s = 1; s < count; s <<= 1) ++stripe_shift_;
    stripes_.reserve(count);
    const std::uint64_t cap = options.capacity;
    const std::uint64_t cap_bytes = options.capacity_bytes;
    for (int s = 0; s < count; ++s) {
      CacheOptions slice = options;
      const std::uint64_t n = static_cast<std::uint64_t>(count);
      const std::uint64_t i = static_cast<std::uint64_t>(s);
      // Remainder-spread split: stripe budgets sum *exactly* to the global
      // budget (no flooring slack), and ChooseStripes guarantees every
      // bounded stripe gets at least 1.
      if (cap > 0) slice.capacity = cap / n + (i < cap % n ? 1 : 0);
      if (cap_bytes > 0) {
        slice.capacity_bytes = cap_bytes / n + (i < cap_bytes % n ? 1 : 0);
      }
      stripes_.push_back(std::make_unique<Stripe>(num_nodes, slice,
                                                  hot_reads ? kHotSlots : 0));
    }
  }

  /// Copies the payload cached for (node, key) into *out and returns true,
  /// or returns false on a miss. With hot_reads, a stable hot-slot match
  /// returns without touching the stripe mutex; otherwise counting, LRU
  /// refresh and hot publication happen in the owning stripe under its
  /// mutex.
  bool Lookup(NodeId node, PackedKey key, V* out) {
    const std::uint64_t hash = HashFor(node, key);
    Stripe& s = StripeAt(hash);
    if (!s.hot.empty() && !key.wide() && HotProbe(s, hash, node, key, out)) {
      s.hot_hits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    std::lock_guard<std::mutex> lock(s.mu);
    const V* hit = s.cache.Lookup(node, key);
    if (hit == nullptr) return false;
    *out = *hit;
    if (!s.hot.empty() && !key.wide()) PublishHot(s, hash, node, key, *out);
    return true;
  }

  /// Inserts (node, key) -> value into the owning stripe, subject to that
  /// stripe's slice of the global budget. Concurrent same-key inserts
  /// serialize on the stripe mutex; the last one wins (both are correct —
  /// cached subtree results for one key are equal by construction). Only
  /// entries the stripe *accepted* are published to the hot slots.
  void Insert(NodeId node, PackedKey key, V value) {
    const std::uint64_t hash = HashFor(node, key);
    Stripe& s = StripeAt(hash);
    std::lock_guard<std::mutex> lock(s.mu);
    const bool publish = !s.hot.empty() && !key.wide();
    V copy = publish ? value : V{};
    if (s.cache.Insert(node, key, std::move(value)) && publish) {
      PublishHot(s, hash, node, key, copy);
    }
  }

  /// Per-stripe counters summed in ascending stripe order — flow counters
  /// *and* peaks (the stripes coexist, so the table's peak footprint is the
  /// sum of stripe peaks, an upper bound on the instantaneous global peak).
  /// Hot-slot hits count as cache hits charged one memory access each (one
  /// slot inspected, the docs/cache.md rule). Call only when no worker is
  /// mid-operation (after joins).
  ExecStats AggregatedStats() const {
    ExecStats out;
    std::uint64_t entries_peak = 0;
    std::uint64_t bytes_peak = 0;
    for (const auto& s : stripes_) {
      out.Merge(s->stats);  // flow counters sum; Merge max-merges peaks...
      const std::uint64_t hot = s->hot_hits.load(std::memory_order_relaxed);
      out.cache_hits += hot;
      out.memory_accesses += hot;
      entries_peak += s->stats.cache_entries_peak;
      bytes_peak += s->stats.cache_bytes_peak;
    }
    out.cache_entries_peak = entries_peak;  // ...so overwrite with the sums
    out.cache_bytes_peak = bytes_peak;
    return out;
  }

  /// Targeted invalidation across all stripes (each under its mutex); see
  /// CacheManager::EvictIf. Clears the stripe's hot slots wholesale — the
  /// predicate cannot be evaluated against a hot slot's published key
  /// without re-deriving its adhesion values, and invalidation correctness
  /// requires that no evicted entry stays readable. Returns the total
  /// number of entries removed.
  template <typename Pred>
  std::size_t EvictIf(const Pred& pred) {
    std::size_t total = 0;
    for (const auto& s : stripes_) {
      std::lock_guard<std::mutex> lock(s->mu);
      total += s->cache.EvictIf(pred);
      ClearHot(*s);
    }
    return total;
  }

  /// Lock-free hot-slot hits served since construction (test/bench
  /// observability; summed over stripes, relaxed reads).
  std::uint64_t HotHits() const {
    std::uint64_t total = 0;
    for (const auto& s : stripes_) {
      total += s->hot_hits.load(std::memory_order_relaxed);
    }
    return total;
  }

  bool hot_reads_enabled() const { return hot_reads_; }

  int stripe_count() const { return static_cast<int>(stripes_.size()); }

  /// Entries currently cached across all stripes (quiescent callers only).
  std::size_t size() const {
    std::size_t total = 0;
    for (const auto& s : stripes_) total += s->cache.size();
    return total;
  }

  /// Payload bytes currently charged across all stripes.
  std::uint64_t payload_bytes() const {
    std::uint64_t total = 0;
    for (const auto& s : stripes_) total += s->cache.payload_bytes();
    return total;
  }

  /// Bytes the stripes' tables hold resident (CacheManager::resident_bytes
  /// summed) plus the hot-slot arrays. Quiescent callers only.
  std::uint64_t resident_bytes() const {
    std::uint64_t total = 0;
    for (const auto& s : stripes_) {
      total += s->cache.resident_bytes() + s->hot.size() * sizeof(HotSlot);
    }
    return total;
  }

  /// Test observability: each stripe's (capacity, capacity_bytes) slice, in
  /// stripe order — lets tests pin that slices sum to the global budget.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> StripeBudgetsForTest()
      const {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    out.reserve(stripes_.size());
    for (const auto& s : stripes_) {
      out.emplace_back(s->options.capacity, s->options.capacity_bytes);
    }
    return out;
  }

  /// Stripe-count policy: the smallest power of two >= 8x the worker count
  /// (clamped to [1, 64]). Every cache call takes its stripe's mutex, so
  /// with few stripes the workers queue on them: the wiki-Vote 5-cycle at
  /// 4 morsel workers (4-vCPU host) took ~1.1 s with 8 stripes, ~0.85 s
  /// with 32 and ~0.75 s with 64. A bounded budget additionally clamps the
  /// count so every stripe's slice is >= 1 entry (and >= 1 byte in byte
  /// mode). An explicit CacheOptions::stripes wins, rounded up to a power
  /// of two, under the same budget clamp.
  static int ChooseStripes(const CacheOptions& options, int workers) {
    int want;
    if (options.stripes > 0) {
      want = 1;
      while (want < options.stripes && want < 1024) want <<= 1;
    } else {
      const int w = workers < 1 ? 1 : workers;
      want = 1;
      while (want < 8 * w && want < 64) want <<= 1;
    }
    while (want > 1 &&
           ((options.capacity > 0 &&
             static_cast<std::uint64_t>(want) > options.capacity) ||
            (options.capacity_bytes > 0 &&
             static_cast<std::uint64_t>(want) > options.capacity_bytes))) {
      want >>= 1;
    }
    return want;
  }

 private:
  /// Hot slots per stripe (direct-mapped). Small on purpose: the point is
  /// the handful of subtree keys a batch polls repeatedly, not a second
  /// cache tier.
  static constexpr int kHotSlots = 64;
  static constexpr std::uint32_t kHotEmpty = 0xFFFFFFFFu;

  /// One seqlock-published entry: seq even = stable, odd = write in flight
  /// (writers are serialized by the stripe mutex). All fields are
  /// individually atomic, so the only hazard a reader must detect is a
  /// snapshot mixing two different writes — the seq double-check does that.
  struct HotSlot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> lo{0};
    std::atomic<std::uint64_t> hi{0};
    std::atomic<NodeId> node{kNone};
    std::atomic<std::uint32_t> dims{kHotEmpty};
    cache_internal::HotPayload<V> value;
  };

  // One segment: mutex + private stats + the PR 1 flat table over a slice
  // of the global budget. Cache-line aligned so neighbouring stripes'
  // mutexes never share a line (the unique_ptr indirection already gives
  // each stripe its own allocation; the alignment makes it explicit).
  struct alignas(64) Stripe {
    Stripe(int num_nodes, const CacheOptions& slice, int hot_slots)
        : options(slice), cache(num_nodes, slice, &stats), hot(hot_slots) {}
    CacheOptions options;
    ExecStats stats;
    std::mutex mu;
    CacheManager<V> cache;
    std::vector<HotSlot> hot;  // empty unless hot_reads
    std::atomic<std::uint64_t> hot_hits{0};
  };

  std::uint64_t HashFor(NodeId node, PackedKey key) const {
    // Same hash the segment table uses (seed constant must match
    // CacheManager::HashKey); the table indexes with the bottom bits, the
    // stripe choice takes the top bits, and the hot slot the middle bits,
    // so no two ever correlate.
    return key.Hash(HashCombine(0x2545f4914f6cdd1dull,
                                static_cast<std::uint64_t>(node)));
  }

  Stripe& StripeAt(std::uint64_t hash) {
    if (stripe_shift_ == 0) return *stripes_[0];  // >> 64 would be UB
    return *stripes_[hash >> (64 - stripe_shift_)];
  }

  static std::size_t HotIndex(std::uint64_t hash) {
    return static_cast<std::size_t>((hash >> 32) &
                                    static_cast<std::uint64_t>(kHotSlots - 1));
  }

  /// Seqlock read. Memory-order contract: every field load is acquire, so
  /// the trailing seq load cannot be reordered before them; if a field
  /// value from a newer write is observed, its (release) store
  /// happens-after that writer's odd seq store, which forces the trailing
  /// seq load to observe seq != s1 and the probe to fall back to the
  /// locked path. A stable even pair therefore brackets one consistent
  /// published entry.
  bool HotProbe(Stripe& s, std::uint64_t hash, NodeId node, PackedKey key,
                V* out) {
    const HotSlot& h = s.hot[HotIndex(hash)];
    const std::uint64_t s1 = h.seq.load(std::memory_order_acquire);
    if ((s1 & 1u) != 0) return false;
    const std::uint64_t lo = h.lo.load(std::memory_order_acquire);
    const std::uint64_t hi = h.hi.load(std::memory_order_acquire);
    const NodeId slot_node = h.node.load(std::memory_order_acquire);
    const std::uint32_t dims = h.dims.load(std::memory_order_acquire);
    V value = h.value.load();
    const std::uint64_t s2 = h.seq.load(std::memory_order_acquire);
    if (s1 != s2) return false;
    if (dims == kHotEmpty || slot_node != node || dims != key.dims ||
        lo != key.lo || hi != key.hi) {
      return false;
    }
    *out = std::move(value);
    return true;
  }

  /// Seqlock publish; caller holds the stripe mutex (writers serialized).
  void PublishHot(Stripe& s, std::uint64_t hash, NodeId node, PackedKey key,
                  const V& value) {
    HotSlot& h = s.hot[HotIndex(hash)];
    const std::uint64_t s0 = h.seq.load(std::memory_order_relaxed);
    h.seq.store(s0 + 1, std::memory_order_release);  // odd: readers back off
    h.lo.store(key.lo, std::memory_order_release);
    h.hi.store(key.hi, std::memory_order_release);
    h.node.store(node, std::memory_order_release);
    h.dims.store(key.dims, std::memory_order_release);
    h.value.store(value);
    h.seq.store(s0 + 2, std::memory_order_release);
  }

  /// Empties a stripe's hot slots (caller holds the stripe mutex). Drops
  /// payload references too, so invalidated factorized sets are released.
  void ClearHot(Stripe& s) {
    for (HotSlot& h : s.hot) {
      const std::uint64_t s0 = h.seq.load(std::memory_order_relaxed);
      h.seq.store(s0 + 1, std::memory_order_release);
      h.dims.store(kHotEmpty, std::memory_order_release);
      h.value.store(V{});
      h.seq.store(s0 + 2, std::memory_order_release);
    }
  }

  int stripe_shift_;  // log2(stripe count); 0 means a single stripe
  bool hot_reads_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

/// The cache a single run state (CountRun/EvalRun) sees: either a private
/// CacheManager owned by the run (sequential CLFTJ, and one-worker CLFTJ-P)
/// or a borrowed pointer to a shared StripedCacheManager (multi-worker
/// CLFTJ-P, and the serving loop's persistent tables). One predictable
/// branch per
/// call; both paths return the payload by value so call sites are uniform
/// and never hold a pointer into a table another thread may mutate.
template <typename V>
class RunCache {
 public:
  RunCache(int num_nodes, const CacheOptions& options, ExecStats* stats,
           StripedCacheManager<V>* shared = nullptr)
      : shared_(shared), private_(num_nodes, options, stats) {}

  bool Lookup(NodeId node, PackedKey key, V* out) {
    if (shared_ != nullptr) return shared_->Lookup(node, key, out);
    const V* hit = private_.Lookup(node, key);
    if (hit == nullptr) return false;
    *out = *hit;
    return true;
  }

  void Insert(NodeId node, PackedKey key, V value) {
    if (shared_ != nullptr) {
      shared_->Insert(node, key, std::move(value));
    } else {
      private_.Insert(node, key, std::move(value));
    }
  }

 private:
  StripedCacheManager<V>* shared_;  // borrowed; outlives the run
  CacheManager<V> private_;         // unused (and empty) when shared_ set
};

}  // namespace clftj

#endif  // CLFTJ_CLFTJ_CACHE_H_
