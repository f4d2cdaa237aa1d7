#pragma once
// Small dense matrix with LU factorization (partial pivoting).
//
// Used for tiny systems (unit tests, closed-form cross-checks, and as the
// reference implementation the sparse LU is validated against).  The MNA
// engine itself uses SparseLu.

#include <cstddef>
#include <vector>

namespace mtcmos {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// data()[r * cols() + c] == at(r, c)
  const std::vector<double>& data() const { return data_; }

  /// Solves A x = b in place via LU with partial pivoting.  A copy of the
  /// matrix is factored; *this is not modified.  Throws NumericalError on a
  /// (numerically) singular matrix.
  std::vector<double> solve(const std::vector<double>& rhs) const;

  /// y = A x
  std::vector<double> multiply(const std::vector<double>& x) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace mtcmos
