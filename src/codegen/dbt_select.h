// Branch-free selection kernels for the columnar batch path.
//
// A selection vector is a dense array of uint32 row indices. Each kernel
// takes a flat column lane plus an input selection (`base`; nullptr means
// the identity 0..n-1), writes the surviving indices to `out` and returns
// the survivor count. `out` may alias `base`, so AND-composition is a chain
// of in-place refinement passes:
//
//   uint32_t k = SelCmp(shipdate, SelOp::kGe, lo, nullptr, n, sel);
//   k = SelCmp(shipdate, SelOp::kLt, hi, sel, k, sel);
//   k = SelCmp(quantity, SelOp::kLt, INT64_C(24), sel, k, sel);
//
// The inner loops are plain branch-free compress loops (`out[k] = i; k +=
// pred`) over int64/double lanes — no intrinsics, the compiler's
// auto-vectorizer does the rest. String equality gets a length-prechecked
// scalar kernel so generated selection prologues never run a per-row
// std::string comparison loop inline.
//
// A generated vec_<R> handler runs these kernels over every call's rows: a
// whole batch group, one shard of it, or the single row on_<R> forwards.
// Batched and per-event replay produce byte-identical state
// (tests/shard_test.cc and the differential harness pin them together).
#ifndef DBTOASTER_CODEGEN_DBT_SELECT_H_
#define DBTOASTER_CODEGEN_DBT_SELECT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace dbt {

enum class SelOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

namespace sel_detail {

/// One compress pass: append i to out when pred(lane[i]), for i drawn from
/// `base` (or 0..n-1 when base == nullptr). Branch-free on the predicate.
template <typename T, typename Pred>
inline uint32_t Pass(const T* lane, const uint32_t* base, uint32_t n,
                     uint32_t* out, Pred pred) {
  uint32_t k = 0;
  if (base == nullptr) {
    for (uint32_t i = 0; i < n; ++i) {
      out[k] = i;
      k += static_cast<uint32_t>(pred(lane[i]));
    }
  } else {
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t r = base[i];
      out[k] = r;
      k += static_cast<uint32_t>(pred(lane[r]));
    }
  }
  return k;
}

}  // namespace sel_detail

/// lane[i] <op> c. T is int64_t or double (dates travel as int64 days).
template <typename T>
inline uint32_t SelCmp(const T* lane, SelOp op, T c, const uint32_t* base,
                       uint32_t n, uint32_t* out) {
  switch (op) {
    case SelOp::kEq:
      return sel_detail::Pass(lane, base, n, out,
                              [c](T v) { return v == c; });
    case SelOp::kNe:
      return sel_detail::Pass(lane, base, n, out,
                              [c](T v) { return v != c; });
    case SelOp::kLt:
      return sel_detail::Pass(lane, base, n, out, [c](T v) { return v < c; });
    case SelOp::kLe:
      return sel_detail::Pass(lane, base, n, out,
                              [c](T v) { return v <= c; });
    case SelOp::kGt:
      return sel_detail::Pass(lane, base, n, out, [c](T v) { return v > c; });
    case SelOp::kGe:
      return sel_detail::Pass(lane, base, n, out,
                              [c](T v) { return v >= c; });
  }
  return 0;
}

/// Half-open range: lo <= lane[i] < hi (the shape EXTRACT(YEAR)=c rewrites
/// to over day-encoded dates).
template <typename T>
inline uint32_t SelRange(const T* lane, T lo, T hi, const uint32_t* base,
                         uint32_t n, uint32_t* out) {
  return sel_detail::Pass(lane, base, n, out,
                          [lo, hi](T v) { return lo <= v && v < hi; });
}

/// Small-list membership (IN-list); branch-free inner fold over the list.
template <typename T>
inline uint32_t SelIn(const T* lane, const T* vals, size_t nvals,
                      const uint32_t* base, uint32_t n, uint32_t* out) {
  return sel_detail::Pass(lane, base, n, out, [vals, nvals](T v) {
    int hit = 0;
    for (size_t j = 0; j < nvals; ++j) hit |= static_cast<int>(v == vals[j]);
    return hit != 0;
  });
}

/// String lane equality with a length precheck: mismatched rows cost one
/// size_t compare, never a character scan.
inline uint32_t SelStrEq(const std::string* lane, const std::string& c,
                         const uint32_t* base, uint32_t n, uint32_t* out) {
  const size_t len = c.size();
  return sel_detail::Pass(lane, base, n, out, [&c, len](const std::string& v) {
    return v.size() == len && v == c;
  });
}

inline uint32_t SelStrNe(const std::string* lane, const std::string& c,
                         const uint32_t* base, uint32_t n, uint32_t* out) {
  const size_t len = c.size();
  return sel_detail::Pass(lane, base, n, out, [&c, len](const std::string& v) {
    return v.size() != len || v != c;
  });
}

/// Stack-or-heap scratch for one selection vector. Groups up to kInline
/// rows (including the one-row lanes on_<R> forwards) select with no
/// allocation; larger groups spill to a vector sized once per call.
class SelBuf {
 public:
  uint32_t* data(uint32_t n) {
    if (n <= kInline) return small_;
    heap_.resize(n);
    return heap_.data();
  }

 private:
  static constexpr uint32_t kInline = 64;
  uint32_t small_[kInline];
  std::vector<uint32_t> heap_;
};

/// Lexicographic order of rows on a statement's int64 key lanes. Every
/// run-batched statement sorts through this one comparator type, so a
/// generated header instantiates the sort once, not once per statement.
struct KeyLess {
  const int64_t* const* keys;
  size_t nkeys;
  bool operator()(uint32_t a, uint32_t b) const {
    for (size_t k = 0; k < nkeys; ++k) {
      if (keys[k][a] != keys[k][b]) return keys[k][a] < keys[k][b];
    }
    return false;
  }
};

/// Key runs of a run-batched statement: stable-sorts the `n` rows of `sel`
/// (nullptr: 0..n-1) on the int64 lanes `keys`, then calls `run(rows, m)`
/// once per maximal run of equal keys and returns the number of runs. Rows
/// keep their selection order within a run, so each key sees the per-event
/// write sequence. One row neither sorts nor allocates, which keeps the
/// per-event path (on_<R> forwarding one row) as cheap as a probe.
template <typename Run>
inline uint64_t KeyRuns(const uint32_t* sel, uint32_t n,
                        std::initializer_list<const int64_t*> keys, Run run) {
  if (n == 0) return 0;
  if (n == 1) {
    const uint32_t row = sel != nullptr ? sel[0] : 0;
    run(&row, 1);
    return 1;
  }
  SelBuf buf;
  uint32_t* rows = buf.data(n);
  for (uint32_t i = 0; i < n; ++i) rows[i] = sel != nullptr ? sel[i] : i;
  const KeyLess less{keys.begin(), keys.size()};
  std::stable_sort(rows, rows + n, less);
  uint64_t runs = 0;
  for (uint32_t lo = 0; lo < n; ++runs) {
    uint32_t hi = lo + 1;
    while (hi < n && !less(rows[lo], rows[hi])) ++hi;
    run(rows + lo, hi - lo);
    lo = hi;
  }
  return runs;
}

}  // namespace dbt

#endif  // DBTOASTER_CODEGEN_DBT_SELECT_H_
