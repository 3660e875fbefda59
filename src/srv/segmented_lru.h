#ifndef EDS_SRV_SEGMENTED_LRU_H_
#define EDS_SRV_SEGMENTED_LRU_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <list>
#include <unordered_map>
#include <utility>

namespace eds::srv {

// Probation's share of a segmented ceiling is 1/kSegmentedProbationShare.
// Chosen by sweeping 1/16, 1/8 and 1/4 on bench_e2e's rewrite_cold
// (EXPERIMENTS.md).
inline constexpr uint64_t kSegmentedProbationShare = 16;

// The segment policy both serving cache tiers share: a segmented LRU (the
// SLRU of W-TinyLFU's main region) over a ceiling of abstract "charge".
// L0Cache charges 1 per entry, PlanCache an entry's term-node count.
//   * probation — every new entry starts here, and the segment is capped
//     at 1/kSegmentedProbationShare of the ceiling (at least 1). Going
//     over that cap evicts from the probation tail only, so a flood of
//     one-shot entries churns through this window instead of the whole
//     cache;
//   * protected — Promote() (a cache's first hit on an entry) moves it
//     here, and only this segment may use the rest of the ceiling. When it
//     overflows, its least-recently-used entry is demoted to the probation
//     head for a second chance rather than evicted outright.
//
// The class owns the two lists and the charge totals; the owning cache
// keeps its own key index (iterators stay valid across segment moves,
// since moving is a list splice) and its own lock. Callbacks hand the
// cache every entry the policy drops, so the cache can unlink it from that
// index first.
template <typename T>
class SegmentedLru {
 public:
  struct Node {
    T value;
    uint64_t charge = 0;
    bool is_protected = false;  // which segment's list holds the node
  };
  // One list per segment, most-recent first.
  using List = std::list<Node>;
  using iterator = typename List::iterator;

  explicit SegmentedLru(uint64_t capacity)
      : capacity_(std::max<uint64_t>(1, capacity)),
        probation_cap_(
            std::max<uint64_t>(1, capacity_ / kSegmentedProbationShare)) {}

  // Links `value` at the probation head with `charge`. Call EnforceCaps()
  // once the caller's index knows the new entry.
  iterator Insert(T value, uint64_t charge) {
    probation_.push_front(Node{std::move(value), 0, false});
    Charge(probation_.begin(), charge);
    return probation_.begin();
  }

  // Re-charges `it` at `charge`, keeping the totals in step.
  void Charge(iterator it, uint64_t charge) {
    charge_ = charge_ - it->charge + charge;
    if (!it->is_protected) {
      probation_charge_ = probation_charge_ - it->charge + charge;
    }
    it->charge = charge;
  }

  // Places a just-inserted or refreshed entry: at the protected head when
  // it is protected already or `hot` (a warm restore of a persisted hot
  // entry, or a key the cache recently evicted coming back), else at the
  // probation head. Call EnforceCaps() after.
  void Touch(iterator it, bool hot) {
    MoveToHead(it, it->is_protected || hot);
  }

  // A hit: moves `it` to the protected head, counting a promotion when it
  // leaves probation.
  void Promote(iterator it) {
    if (!it->is_protected) ++promotions_;
    MoveToHead(it, /*to_protected=*/true);
  }

  // Demotes protected-tail entries while protected is over its share, then
  // evicts probation-tail entries while probation is over its cap, calling
  // `on_evict(value)` before each eviction. Neither segment is emptied by
  // its own overflow: its head survives even when it alone is over (a
  // cache that cannot hold the working entry is useless, not wrong). A
  // ceiling no larger than the probation cap leaves protected no share at
  // all, so everything in it is demoted.
  template <typename OnEvict>
  void EnforceCaps(OnEvict&& on_evict) {
    const uint64_t protected_cap =
        capacity_ > probation_cap_ ? capacity_ - probation_cap_ : 0;
    while (charge_ - probation_charge_ > protected_cap &&
           (protected_.size() > 1 ||
            (protected_cap == 0 && !protected_.empty()))) {
      MoveToHead(std::prev(protected_.end()), /*to_protected=*/false);
    }
    // Only probation evicts, so a flood of one-shot inserts can never push
    // out an entry that has been reused.
    while (probation_charge_ > probation_cap_ && probation_.size() > 1) {
      iterator victim = std::prev(probation_.end());
      on_evict(victim->value);
      Erase(victim);
      ++evictions_;
    }
  }

  // Unlinks `it` and drops its charge.
  void Erase(iterator it) {
    Charge(it, 0);
    (it->is_protected ? protected_ : probation_).erase(it);
  }

  // Erases every entry for which `doomed(value)` is true (the predicate
  // may unlink the value from the caller's index before answering);
  // returns how many went.
  template <typename Doomed>
  uint64_t EraseIf(Doomed&& doomed) {
    uint64_t erased = 0;
    for (List* segment : {&protected_, &probation_}) {
      for (iterator it = segment->begin(); it != segment->end();) {
        if (doomed(it->value)) {
          Erase(it++);
          ++erased;
        } else {
          ++it;
        }
      }
    }
    return erased;
  }

  void Clear() {
    probation_.clear();
    protected_.clear();
    charge_ = 0;
    probation_charge_ = 0;
  }

  // Visits every entry: protected, then probation, each most-recently-used
  // first (the order persistence snapshots list them in).
  template <typename Visit>
  void ForEach(Visit&& visit) const {
    for (const List* segment : {&protected_, &probation_}) {
      for (const Node& node : *segment) visit(node.value);
    }
  }

  uint64_t size() const { return probation_.size() + protected_.size(); }
  uint64_t probation_size() const { return probation_.size(); }
  uint64_t charge() const { return charge_; }
  uint64_t probation_charge() const { return probation_charge_; }
  // Lifetime counters: Promote()s out of probation, probation-tail drops.
  uint64_t promotions() const { return promotions_; }
  uint64_t evictions() const { return evictions_; }

 private:
  // Moves `it` to the head of the protected or the probation list.
  void MoveToHead(iterator it, bool to_protected) {
    // Uncharged from the old segment, recharged to the new one.
    const uint64_t charge = it->charge;
    Charge(it, 0);
    List& from = it->is_protected ? protected_ : probation_;
    List& to = to_protected ? protected_ : probation_;
    to.splice(to.begin(), from, it);
    it->is_protected = to_protected;
    Charge(it, charge);
  }

  const uint64_t capacity_;
  const uint64_t probation_cap_;  // capacity_ / kSegmentedProbationShare, >= 1
  List probation_;
  List protected_;
  uint64_t charge_ = 0;
  uint64_t probation_charge_ = 0;
  uint64_t promotions_ = 0;
  uint64_t evictions_ = 0;
};

// The hashes of the last `capacity` keys a cache evicted from probation
// (the "ghost" list of 2Q). A key that comes back while it is remembered
// has repeated further apart than the probation window can see, and the
// cache admits it straight to protected (SegmentedLru::Touch with `hot`):
// it misses once more than under a plain LRU, then hits. One-shot keys age
// out unseen. Costs a hash and a map node per remembered key, not a value.
// QueryService reuses it as the plan cache's admission doorkeeper: the
// hashes of templates whose first rewrite was served but not stored.
class EvictedKeys {
 public:
  explicit EvictedKeys(size_t capacity) : capacity_(capacity) {}

  void Remember(uint64_t hash) {
    if (capacity_ == 0) return;
    order_.push_back(hash);
    ++count_[hash];
    if (order_.size() > capacity_) {
      auto it = count_.find(order_.front());
      if (--it->second == 0) count_.erase(it);
      order_.pop_front();
    }
  }

  bool Contains(uint64_t hash) const { return count_.count(hash) != 0; }

 private:
  const size_t capacity_;
  std::deque<uint64_t> order_;  // oldest first
  std::unordered_map<uint64_t, uint32_t> count_;  // hash -> times in order_
};

}  // namespace eds::srv

#endif  // EDS_SRV_SEGMENTED_LRU_H_
