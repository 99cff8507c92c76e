// Sparse LU factorization of a simplex basis, with product-form updates.
//
// The master problems this library solves are extremely sparse: most basis
// columns are slacks (one nonzero) and the structural columns carry a
// handful of capacity entries plus one convexity entry.  A dense m×m basis
// inverse therefore wastes O(m²) work per pivot on zeros.  BasisFactor
// replaces it with:
//
//  * a Markowitz-ordered LU factorization (threshold pivoting, singleton
//    columns eliminated first — for a slack-dominated basis the bulk of the
//    matrix factorizes with zero fill and the Markowitz search only ever
//    touches the small non-triangular core);
//  * eta (product-form) updates per simplex pivot: replacing basis column r
//    by a column with FTRAN image alpha appends one eta instead of touching
//    the whole inverse;
//  * refactorization triggers on eta-file length and accumulated eta fill
//    relative to the LU nonzeros, so solve cost stays O(nnz) instead of
//    degrading as the eta file grows.
//
// FTRAN (solve B x = b) and BTRAN (solve Bᵀ y = c) both run in
// O(nnz(L)+nnz(U)+nnz(etas)).  All orderings are deterministic functions of
// the basis, so repeated factorizations of the same basis produce bitwise
// identical solves (the determinism contract of docs/parallelism.md).
#pragma once

#include <cstdint>
#include <vector>

namespace olive::lp {

/// A basis column as (row, value) parallel arrays borrowed from the caller.
struct FactorColumn {
  const int* rows = nullptr;
  const double* vals = nullptr;
  int nnz = 0;
};

struct FactorOptions {
  /// Refactorize once the eta file reaches this many etas.
  int max_etas = 64;
  /// ... or once the accumulated eta nonzeros exceed this multiple of the
  /// LU factor nonzeros (fill growth makes every solve pay).
  double eta_fill_growth = 2.0;
};

/// Counters accumulated across the lifetime of the owning solver.
struct FactorStats {
  long refactorizations = 0;  ///< factorize() calls
  long eta_length_max = 0;    ///< high-water mark of the eta file
  long lu_fill_nnz = 0;       ///< nnz(L)+nnz(U) of the last factorization
};

class BasisFactor {
 public:
  explicit BasisFactor(FactorOptions options = {}) : options_(options) {}

  /// Factorizes the m×m basis whose k-th column is `cols[k]`.  Resets the
  /// eta file.  Throws SolverError if the basis is numerically singular.
  void factorize(int m, const std::vector<FactorColumn>& cols);

  /// Rank-revealing variant for basis repair: instead of throwing on a
  /// singular basis, elimination runs to the end skipping failures and
  /// reports the rows that lost coverage and the (equally many) basis
  /// positions that never pivoted — the caller swaps unit columns in for
  /// exactly those pairs and re-factorizes strictly.  When both lists come
  /// back empty the factorization is complete and usable as-is; otherwise
  /// this object is left unusable (factorized() == false) until the next
  /// strict factorize().
  void factorize_relaxed(int m, const std::vector<FactorColumn>& cols,
                         std::vector<int>* uncovered_rows,
                         std::vector<int>* unpivoted_positions);

  /// Replaces this factor's contents with `fresh` (a *successful*
  /// factorization, typically of the same basis), accumulating the stats
  /// counters instead of resetting them.  Lets callers factorize into a
  /// scratch object first so that a SolverError cannot leave the live
  /// factor half-built.
  void adopt(BasisFactor&& fresh);

  bool factorized() const noexcept { return m_ > 0; }
  int dimension() const noexcept { return m_; }

  /// Solves B x = b in place (LU solve, then the eta file in order).
  void ftran(std::vector<double>& x) const;

  /// Solves Bᵀ y = c in place (eta file in reverse, then the LUᵀ solve).
  void btran(std::vector<double>& x) const;

  /// Product-form update for a pivot that replaces basis position `r` by a
  /// column whose FTRAN image is `alpha` (dense, length m).  Returns false —
  /// leaving the factor unchanged — when |alpha[r]| is below the pivot
  /// tolerance; the caller should refactorize instead.
  bool update(int r, const std::vector<double>& alpha);

  /// True once the eta-file length or accumulated eta fill crosses the
  /// configured trigger; the owner should refactorize at the next
  /// convenient point.
  bool needs_refactorization() const noexcept;

  int eta_count() const noexcept { return static_cast<int>(etas_.size()); }
  long eta_nnz() const noexcept { return eta_nnz_; }
  const FactorStats& stats() const noexcept { return stats_; }

  /// After factorize() threw SolverError: the working row that lost
  /// coverage (vanished by exact cancellation, or pivot below tolerance).
  /// -1 when the failure could not be localized.  Warm-start installation
  /// uses this to repair rank-deficient bases column by column.
  int last_failure_row() const noexcept { return last_failure_row_; }

 private:
  void factorize_impl(int m, const std::vector<FactorColumn>& cols,
                      bool relaxed, std::vector<int>* uncovered_rows,
                      std::vector<int>* unpivoted_positions);

  struct Eta {
    int r = -1;           ///< replaced basis position
    double pivot = 0;     ///< alpha[r]
    std::vector<int> rows;     ///< nonzero positions i != r
    std::vector<double> vals;  ///< alpha[i] for those positions
  };

  void solve_lower(std::vector<double>& x) const;
  void solve_upper(std::vector<double>& x) const;
  void solve_upper_transposed(std::vector<double>& x) const;
  void solve_lower_transposed(std::vector<double>& x) const;

  FactorOptions options_;
  int m_ = 0;

  // Elimination step t pivots on (pivot_row_[t], pivot_col_[t]).  L entries
  // of step t eliminate rows below the pivot; the U row of step t holds the
  // pivot row's surviving entries (columns that become pivots of later
  // steps).  Flat CSR-style storage keeps the solves cache-friendly.
  std::vector<int> pivot_row_, pivot_col_;
  std::vector<double> diag_;                  // U diagonal per step
  std::vector<int> l_start_, u_start_;        // step -> range starts (+1 end)
  std::vector<int> l_index_, u_index_;        // L: row ids; U: column ids
  std::vector<double> l_value_, u_value_;

  std::vector<Eta> etas_;
  long eta_nnz_ = 0;
  FactorStats stats_;
  int last_failure_row_ = -1;
};

}  // namespace olive::lp
