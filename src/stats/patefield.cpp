#include "stats/patefield.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "stats/special_math.h"

namespace hypdb {

namespace {

// AS 159's conditional mode `nlm` of the cell being drawn and its
// probability `x`, given the row remainder ia, the column remainder id and
// the grand remainder ie (see the walk below for the names).
inline void ModeProbability(int64_t ia, int64_t id, int64_t ie,
                            const double* lf, int64_t* nlm, double* x) {
  const int64_t ib = ie - ia;
  const int64_t ic = ie - id;
  const int64_t ii = ib - id;
  const int64_t mode = static_cast<int64_t>(
      static_cast<double>(ia) * static_cast<double>(id) /
          static_cast<double>(ie) +
      0.5);
  *nlm = mode;
  *x = std::exp(lf[ia] + lf[ib] + lf[ic] + lf[id] - lf[ie] - lf[mode] -
                lf[id - mode] - lf[ia - mode] - lf[ii + mode]);
}

}  // namespace

void ModeProbabilityMemo::Fill(int64_t ia, int64_t id, int64_t ie,
                               const double* log_fact, Slot* slot) {
  ModeProbability(ia, id, ie, log_fact, &slot->nlm, &slot->x);
  slot->ia = ia;
  slot->id = id;
  slot->ie = ie;
}

bool SampleCellsWithMargins(std::span<const int64_t> row_totals,
                            std::span<const int64_t> col_totals,
                            const double* log_fact, Rng& rng,
                            std::span<int64_t> cells,
                            std::span<int64_t> col_work,
                            ModeProbabilityMemo* memo) {
  const int nr = static_cast<int>(row_totals.size());
  const int nc = static_cast<int>(col_totals.size());
  // Degenerate shapes are fully determined by their margins.
  if (nr == 1) {
    std::copy(col_totals.begin(), col_totals.end(), cells.begin());
    return true;
  }
  if (nc == 1) {
    std::copy(row_totals.begin(), row_totals.end(), cells.begin());
    return true;
  }
  const int64_t ntotal =
      std::accumulate(row_totals.begin(), row_totals.end(), int64_t{0});
  if (ntotal == 0) {
    std::fill(cells.begin(), cells.end(), 0);
    return true;
  }
  int64_t* out = cells.data();
  int64_t* jwork = col_work.data();

  // Port of AS 159 as implemented in R's rcont2. Cells are filled row by
  // row, left to right; each cell is drawn from its conditional
  // distribution given everything already placed, by inverse-CDF walking
  // outward from the conditional mode. Variable names follow the
  // reference: ia = remaining count of the current row, ie = remaining
  // grand total before this cell's column, ib/ic/id/ii are the 2x2
  // collapse of the not-yet-filled region.
  std::copy(col_totals.begin(), col_totals.end() - 1, jwork);
  int64_t jc = ntotal;
  for (int l = 0; l < nr - 1; ++l) {
    int64_t* row = out + static_cast<size_t>(l) * nc;
    int64_t ia = row_totals[l];
    int64_t ic = jc;
    jc -= ia;
    for (int m = 0; m < nc - 1; ++m) {
      const int64_t id = jwork[m];
      const int64_t ie = ic;
      ic -= id;
      const int64_t ib = ie - ia;
      const int64_t ii = ib - id;
      if (ie == 0) {
        for (int j = m; j < nc - 1; ++j) row[j] = 0;
        ia = 0;
        break;
      }
      // The mode and its probability depend on (ia, id, ie) alone, so they
      // are computed (or recalled) once, not per inverse-CDF restart.
      int64_t mode;
      double mode_prob;
      if (memo != nullptr) {
        memo->Lookup(ia, id, ie, log_fact, &mode, &mode_prob);
      } else {
        ModeProbability(ia, id, ie, log_fact, &mode, &mode_prob);
      }
      double dummy = rng.UniformDouble();
      int64_t nlm;
      for (;;) {
        nlm = mode;
        double x = mode_prob;
        if (x >= dummy) break;
        if (x == 0.0) return false;  // probability underflow
        double sumprb = x;
        double y = x;
        int64_t nll = nlm;
        bool lsp = false;
        do {
          // Walk upward from the mode.
          double j = static_cast<double>((id - nlm) * (ia - nlm));
          lsp = (j == 0.0);
          if (!lsp) {
            ++nlm;
            x = x * j /
                (static_cast<double>(nlm) * static_cast<double>(ii + nlm));
            sumprb += x;
            if (sumprb >= dummy) goto kFound;
          }
          bool lsm;
          do {
            // Walk downward from the mode.
            double j2 =
                static_cast<double>(nll) * static_cast<double>(ii + nll);
            lsm = (j2 == 0.0);
            if (!lsm) {
              --nll;
              y = y * j2 /
                  (static_cast<double>(id - nll) *
                   static_cast<double>(ia - nll));
              sumprb += y;
              if (sumprb >= dummy) {
                nlm = nll;
                goto kFound;
              }
              if (!lsp) break;  // alternate back to the upward walk
            }
          } while (!lsm);
        } while (!lsp);
        dummy = sumprb * rng.UniformDouble();
      }
    kFound:
      row[m] = nlm;
      ia -= nlm;
      jwork[m] -= nlm;
    }
    row[nc - 1] = ia;  // row remainder
  }
  // Last row: column remainders.
  int64_t* last_row = out + static_cast<size_t>(nr - 1) * nc;
  int64_t last = row_totals[nr - 1];
  for (int m = 0; m < nc - 1; ++m) {
    last_row[m] = jwork[m];
    last -= jwork[m];
  }
  last_row[nc - 1] = last;
  return true;
}

Status SampleTableWithMargins(const std::vector<int64_t>& row_totals,
                              const std::vector<int64_t>& col_totals,
                              const std::vector<double>& log_fact, Rng& rng,
                              Table2D* out) {
  const int nr = static_cast<int>(row_totals.size());
  const int nc = static_cast<int>(col_totals.size());
  if (nr == 0 || nc == 0) {
    return Status::InvalidArgument("empty margins");
  }
  const int64_t ntotal =
      std::accumulate(row_totals.begin(), row_totals.end(), int64_t{0});

  *out = Table2D(nr, nc);
  if (nr > 1 && nc > 1 && ntotal > 0 &&
      static_cast<int64_t>(log_fact.size()) <= ntotal) {
    return Status::InvalidArgument(
        "log-factorial table too small for total " + std::to_string(ntotal));
  }
  std::vector<int64_t> col_work(nc - 1);
  if (!SampleCellsWithMargins(row_totals, col_totals, log_fact.data(), rng,
                              *out->mutable_cells(), col_work,
                              /*memo=*/nullptr)) {
    return Status::Internal("patefield: probability underflow");
  }
  out->RebuildMargins();
  return Status::Ok();
}

StatusOr<PatefieldSampler> PatefieldSampler::Create(
    std::vector<int64_t> row_totals, std::vector<int64_t> col_totals) {
  if (row_totals.empty() || col_totals.empty()) {
    return Status::InvalidArgument("empty margins");
  }
  int64_t row_sum = 0;
  int64_t col_sum = 0;
  for (int64_t r : row_totals) {
    if (r < 0) return Status::InvalidArgument("negative row margin");
    row_sum += r;
  }
  for (int64_t c : col_totals) {
    if (c < 0) return Status::InvalidArgument("negative column margin");
    col_sum += c;
  }
  if (row_sum != col_sum) {
    return Status::InvalidArgument("row and column margins disagree: " +
                                   std::to_string(row_sum) + " vs " +
                                   std::to_string(col_sum));
  }
  PatefieldSampler sampler;
  sampler.row_totals_ = std::move(row_totals);
  sampler.col_totals_ = std::move(col_totals);
  sampler.total_ = row_sum;
  sampler.log_fact_ = LogFactorialTable(row_sum);
  return sampler;
}

Status PatefieldSampler::Sample(Rng& rng, Table2D* out) const {
  return SampleTableWithMargins(row_totals_, col_totals_, log_fact_, rng,
                                out);
}

}  // namespace hypdb
