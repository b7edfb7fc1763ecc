#include "shape/l_list_set.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace fpopt {

void LListSet::add(LList list) {
  if (list.empty()) return;
  total_ += list.size();
  lists_.push_back(std::move(list));
}

std::vector<LEntry> LListSet::all_entries() const {
  std::vector<LEntry> out;
  out.reserve(total_);
  for (const LList& l : lists_) {
    out.insert(out.end(), l.begin(), l.end());
  }
  return out;
}

void LListSet::replace_lists(std::vector<LList> lists) {
  lists_.clear();
  total_ = 0;
  for (LList& l : lists) add(std::move(l));
}

namespace {

/// Sweep order of one w2 group: (w1, h1, h2) ascending, then id, so that
/// of exact duplicates the earliest-generated copy (lowest id) is kept.
bool sweep_less(const LEntry& a, const LEntry& b) {
  if (a.shape.w1 != b.shape.w1) return a.shape.w1 < b.shape.w1;
  if (a.shape.h1 != b.shape.h1) return a.shape.h1 < b.shape.h1;
  if (a.shape.h2 != b.shape.h2) return a.shape.h2 < b.shape.h2;
  return a.id < b.id;
}

/// Reusable buffers of canonicalize(), one set per call.
struct Scratch {
  std::vector<LEntry> sorted, spare, kept;
  std::vector<std::size_t> runs;  ///< run start offsets into `sorted`, plus the end
  /// Kept (h1, h2) pairs with h1 ascending and h2 strictly descending: the
  /// smallest h2 any kept entry reaches at h1' <= h1.
  std::vector<std::pair<Dim, Dim>> staircase;
};

/// Every entry of the group's chains in sweep order. A chain read
/// backwards is already in sweep order (w1 strictly ascending), so the
/// chains are laid out as runs and merged pairwise: O(n log chains)
/// element moves instead of a sort of every entry.
void merge_chains(std::span<const LList> lists, std::span<const std::uint32_t> group,
                  Scratch& s) {
  s.sorted.clear();
  s.runs.clear();
  for (const std::uint32_t c : group) {
    s.runs.push_back(s.sorted.size());
    s.sorted.insert(s.sorted.end(), lists[c].entries().rbegin(), lists[c].entries().rend());
  }
  s.runs.push_back(s.sorted.size());
  s.spare.resize(s.sorted.size());
  while (s.runs.size() > 2) {
    std::size_t out = 0;
    for (std::size_t r = 0; r + 1 < s.runs.size(); r += 2) {
      const auto base = s.sorted.begin();
      const auto lo = base + static_cast<std::ptrdiff_t>(s.runs[r]);
      const auto mid = base + static_cast<std::ptrdiff_t>(s.runs[r + 1]);
      const auto hi = r + 2 < s.runs.size() ? base + static_cast<std::ptrdiff_t>(s.runs[r + 2])
                                            : mid;
      std::merge(lo, mid, mid, hi, s.spare.begin() + static_cast<std::ptrdiff_t>(s.runs[r]),
                 sweep_less);
      s.runs[out++] = s.runs[r];
    }
    s.runs[out++] = s.sorted.size();
    s.runs.resize(out);
    std::swap(s.sorted, s.spare);
  }
}

/// Pareto-minimal subset of s.sorted (one w2 group, sweep order) into
/// s.kept, in sweep order. Everything already kept has w1 <= the current
/// entry's (and for w1 ties, h1 <=), so the current entry is redundant iff
/// some kept entry has both heights <=: a lookup on the staircase.
void pareto_sweep(Scratch& s) {
  s.kept.clear();
  s.staircase.clear();
  auto& st = s.staircase;
  for (const LEntry& e : s.sorted) {
    const Dim h1 = e.shape.h1, h2 = e.shape.h2;
    // First step with h1' > h1; the one before it has the smallest h2'
    // over h1' <= h1.
    auto pos = std::upper_bound(st.begin(), st.end(), h1,
                                [](Dim v, const std::pair<Dim, Dim>& p) { return v < p.first; });
    if (pos != st.begin() && std::prev(pos)->second <= h2) continue;  // dominated
    s.kept.push_back(e);
    // Insert (h1, h2): it supersedes a step at the same h1 and the steps
    // after it whose h2' >= h2.
    if (pos != st.begin() && std::prev(pos)->first == h1) --pos;
    auto last = pos;
    while (last != st.end() && last->second >= h2) ++last;
    if (pos == last) {
      st.insert(pos, {h1, h2});
    } else {
      *pos = {h1, h2};
      st.erase(pos + 1, last);
    }
  }
}

/// Partition s.kept into irreducible chains, appended to `out`: first fit
/// in (w1 desc, h1 asc, h2 asc) order onto a chain whose tail has strictly
/// larger w1 and componentwise <= heights. That order is s.kept with its
/// equal-w1 blocks reversed, so no sort is needed. Entries sharing a w1
/// are mutually unchainable; first fit handles that because tails take on
/// the current w1 as soon as one block member lands on them.
void partition_kept(const Scratch& s, std::vector<LList>& out) {
  std::vector<std::vector<LEntry>> chains;
  const std::vector<LEntry>& kept = s.kept;
  for (std::size_t hi = kept.size(); hi > 0;) {
    std::size_t lo = hi - 1;
    while (lo > 0 && kept[lo - 1].shape.w1 == kept[hi - 1].shape.w1) --lo;
    for (std::size_t i = lo; i < hi; ++i) {
      const LImpl& e = kept[i].shape;
      const auto fits = [&e](const std::vector<LEntry>& chain) {
        const LImpl& tail = chain.back().shape;
        return tail.w1 > e.w1 && tail.h1 <= e.h1 && tail.h2 <= e.h2;
      };
      const auto it = std::find_if(chains.begin(), chains.end(), fits);
      if (it == chains.end()) {
        chains.push_back({kept[i]});
      } else {
        it->push_back(kept[i]);
      }
    }
    hi = lo;
  }
  for (auto& chain : chains) out.push_back(LList::from_chain_unchecked(std::move(chain)));
}

}  // namespace

std::size_t LListSet::canonicalize() {
  if (lists_.empty()) return 0;
  const std::size_t before = total_;

  // Group the chains (each has a single w2) by w2, groups ascending.
  std::vector<std::uint32_t> order(lists_.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [this](std::uint32_t a, std::uint32_t b) {
    return lists_[a].w2() < lists_[b].w2();
  });

  Scratch scratch;
  std::vector<LList> new_lists;
  for (std::size_t lo = 0; lo < order.size();) {
    std::size_t hi = lo + 1;
    while (hi < order.size() && lists_[order[hi]].w2() == lists_[order[lo]].w2()) ++hi;
    merge_chains(lists_, std::span<const std::uint32_t>(order).subspan(lo, hi - lo), scratch);
    pareto_sweep(scratch);
    partition_kept(scratch, new_lists);
    lo = hi;
  }

  replace_lists(std::move(new_lists));
  return before - total_;
}

}  // namespace fpopt
