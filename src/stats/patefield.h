// Patefield's algorithm AS 159 (Patefield 1981): uniform sampling of r×c
// contingency tables with fixed row and column totals.
//
// Randomly shuffling a data column only changes the cells of its
// contingency table, never the margins, and the induced distribution over
// tables is exactly the fixed-margins hypergeometric distribution AS 159
// samples from. This replaces O(n) shuffles with O(r·c) table draws — the
// key optimization behind the MIT permutation test (paper Sec. 5).
//
// There is one AS 159 implementation, `SampleCellsWithMargins`: an
// allocation-free core that writes a draw's cells into a caller buffer and
// validates nothing. `SampleTableWithMargins` is the checked `Table2D`
// wrapper over it. The permutation test's replicate loop calls the core
// directly with a `ModeProbabilityMemo`: per AS-159 cell step, the
// probability of the conditional mode is exp of a sum of nine
// log-factorials of (ia, id, ie), so it is a pure function of those three
// and the memo returns the very double the walk would compute. Contract:
// for the same margins and `Rng` state, the core (with or without a memo)
// writes the same cells, takes the same `Rng` draws and fails on the same
// underflow as `SampleTableWithMargins`.

#ifndef HYPDB_STATS_PATEFIELD_H_
#define HYPDB_STATS_PATEFIELD_H_

#include <cstdint>
#include <span>
#include <vector>

#include "stats/contingency.h"
#include "util/rng.h"
#include "util/status.h"

namespace hypdb {

/// Direct-mapped cache of the AS-159 conditional-mode step: (ia, id, ie) →
/// (mode, probability of the mode). Slots are compared on the full key, so
/// a collision only costs a recomputation. Log-factorial entries do not
/// depend on the table's length, so one memo serves every stratum and
/// log-factorial table of a test. Not thread-safe; one per caller.
class ModeProbabilityMemo {
 public:
  ModeProbabilityMemo() : slots_(kSlots) {}

  /// The mode `nlm` of cell (ia, id, ie) and x = Pr(nlm), computed with
  /// `log_fact` on a miss. Inline: the AS-159 walk asks once per cell.
  void Lookup(int64_t ia, int64_t id, int64_t ie, const double* log_fact,
              int64_t* nlm, double* x) {
    const uint64_t hash = static_cast<uint64_t>(ia) * 0x9E3779B97F4A7C15ull ^
                          static_cast<uint64_t>(id) * 0xC2B2AE3D27D4EB4Full ^
                          static_cast<uint64_t>(ie) * 0x165667B19E3779F9ull;
    Slot& slot = slots_[hash >> (64 - kSlotBits)];
    if (slot.ia != ia || slot.id != id || slot.ie != ie) {
      Fill(ia, id, ie, log_fact, &slot);
    }
    *nlm = slot.nlm;
    *x = slot.x;
  }

 private:
  static constexpr int kSlotBits = 12;
  static constexpr size_t kSlots = size_t{1} << kSlotBits;
  struct Slot {
    int64_t ia = -1;  // -1: empty
    int64_t id = 0;
    int64_t ie = 0;
    int64_t nlm = 0;
    double x = 0.0;
  };
  static void Fill(int64_t ia, int64_t id, int64_t ie, const double* log_fact,
                   Slot* slot);

  std::vector<Slot> slots_;
};

/// The AS-159 core: draws one table with row margins `row_totals` and
/// column margins `col_totals`, writing its cells row-major into `cells`
/// (size rows·cols). `col_work` is scratch of at least cols-1 entries.
/// Nothing is validated or allocated: margins must be non-empty,
/// non-negative and agree on their sum, and `log_fact[k]` must hold ln(k!)
/// up to that sum. `memo` may be null. Returns false on a probability
/// underflow (cells are then partial).
bool SampleCellsWithMargins(std::span<const int64_t> row_totals,
                            std::span<const int64_t> col_totals,
                            const double* log_fact, Rng& rng,
                            std::span<int64_t> cells,
                            std::span<int64_t> col_work,
                            ModeProbabilityMemo* memo);

/// Draws one random table with the given margins into `*out` (resized and
/// margins rebuilt). `log_fact[k]` must hold ln(k!) for all k up to the
/// grand total (see LogFactorialTable). Margins must be non-negative and
/// agree on their sum.
Status SampleTableWithMargins(const std::vector<int64_t>& row_totals,
                              const std::vector<int64_t>& col_totals,
                              const std::vector<double>& log_fact, Rng& rng,
                              Table2D* out);

/// Convenience wrapper that validates margins once and reuses a shared
/// log-factorial table across many draws.
class PatefieldSampler {
 public:
  /// Validates margins; fails on negative entries or mismatched sums.
  static StatusOr<PatefieldSampler> Create(std::vector<int64_t> row_totals,
                                           std::vector<int64_t> col_totals);

  /// Draws one table.
  Status Sample(Rng& rng, Table2D* out) const;

  int64_t total() const { return total_; }

 private:
  PatefieldSampler() = default;

  std::vector<int64_t> row_totals_;
  std::vector<int64_t> col_totals_;
  int64_t total_ = 0;
  std::vector<double> log_fact_;
};

}  // namespace hypdb

#endif  // HYPDB_STATS_PATEFIELD_H_
