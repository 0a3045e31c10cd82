#include "csr.hpp"

#include "common/logging.hpp"
#include "linalg/simd_kernels.hpp"

namespace rsqp
{

CsrMatrix::CsrMatrix(Index rows, Index cols)
    : rows_(rows), cols_(cols),
      rowPtr_(static_cast<std::size_t>(rows) + 1, 0)
{
    RSQP_ASSERT(rows >= 0 && cols >= 0, "negative matrix dimension");
}

CsrMatrix
CsrMatrix::fromCsc(const CscMatrix& csc)
{
    CsrMatrix result(csc.rows(), csc.cols());
    result.colIdx_.resize(static_cast<std::size_t>(csc.nnz()));
    result.values_.resize(static_cast<std::size_t>(csc.nnz()));

    // Count entries per row.
    for (Index r : csc.rowIdx())
        ++result.rowPtr_[static_cast<std::size_t>(r) + 1];
    for (Index r = 0; r < csc.rows(); ++r)
        result.rowPtr_[static_cast<std::size_t>(r) + 1] +=
            result.rowPtr_[static_cast<std::size_t>(r)];

    std::vector<Index> cursor(result.rowPtr_.begin(),
                              result.rowPtr_.end() - 1);
    // Column-major traversal fills each row with ascending columns.
    for (Index c = 0; c < csc.cols(); ++c) {
        for (Index p = csc.colPtr()[c]; p < csc.colPtr()[c + 1]; ++p) {
            const Index r = csc.rowIdx()[p];
            const Index pos = cursor[static_cast<std::size_t>(r)]++;
            result.colIdx_[static_cast<std::size_t>(pos)] = c;
            result.values_[static_cast<std::size_t>(pos)] =
                csc.values()[p];
        }
    }
    return result;
}

CsrMatrix
CsrMatrix::fromRaw(Index rows, Index cols, std::vector<Index> row_ptr,
                   std::vector<Index> col_idx, std::vector<Real> values)
{
    CsrMatrix result;
    result.rows_ = rows;
    result.cols_ = cols;
    result.rowPtr_ = std::move(row_ptr);
    result.colIdx_ = std::move(col_idx);
    result.values_ = std::move(values);
    if (!result.isValid())
        RSQP_FATAL("fromRaw: invalid CSR structure for ", rows, "x", cols,
                   " matrix");
    return result;
}

Index
CsrMatrix::rowNnz(Index row) const
{
    RSQP_ASSERT(row >= 0 && row < rows_, "rowNnz out of range");
    return rowPtr_[row + 1] - rowPtr_[row];
}

void
CsrMatrix::spmv(const Vector& x, Vector& y) const
{
    RSQP_ASSERT(static_cast<Index>(x.size()) == cols_, "spmv: x size");
    y.resize(static_cast<std::size_t>(rows_));
    // Row-gather: each output element is one private accumulation. The
    // per-row gather dispatches through the SIMD kernel table and uses the
    // canonical 8-lane striped order at every ISA level.
    const simd::VectorKernels& k = simd::activeKernels();
    for (Index r = 0; r < rows_; ++r) {
        const Index begin = rowPtr_[r];
        y[static_cast<std::size_t>(r)] =
            k.csrRowGather(values_.data() + begin,
                           colIdx_.data() + begin,
                           rowPtr_[r + 1] - begin, x.data());
    }
}

CscMatrix
CsrMatrix::toCsc() const
{
    TripletList triplets(rows_, cols_);
    triplets.reserve(values_.size());
    for (Index r = 0; r < rows_; ++r)
        for (Index p = rowPtr_[r]; p < rowPtr_[r + 1]; ++p)
            triplets.add(r, colIdx_[p], values_[p]);
    return CscMatrix::fromTriplets(triplets);
}

CsrMatrix
CsrMatrix::permuteRows(const IndexVector& perm) const
{
    RSQP_ASSERT(static_cast<Index>(perm.size()) == rows_,
                "row permutation size mismatch");
    CsrMatrix result(rows_, cols_);
    result.colIdx_.reserve(colIdx_.size());
    result.values_.reserve(values_.size());
    for (Index i = 0; i < rows_; ++i) {
        const Index src = perm[static_cast<std::size_t>(i)];
        RSQP_ASSERT(src >= 0 && src < rows_, "bad permutation entry");
        for (Index p = rowPtr_[src]; p < rowPtr_[src + 1]; ++p) {
            result.colIdx_.push_back(colIdx_[p]);
            result.values_.push_back(values_[p]);
        }
        result.rowPtr_[static_cast<std::size_t>(i) + 1] =
            static_cast<Index>(result.colIdx_.size());
    }
    return result;
}

bool
CsrMatrix::isValid() const
{
    if (rows_ < 0 || cols_ < 0)
        return false;
    if (rowPtr_.size() != static_cast<std::size_t>(rows_) + 1)
        return false;
    if (rowPtr_.front() != 0)
        return false;
    if (colIdx_.size() != values_.size())
        return false;
    if (rowPtr_.back() != static_cast<Index>(colIdx_.size()))
        return false;
    for (Index r = 0; r < rows_; ++r) {
        if (rowPtr_[r] > rowPtr_[r + 1])
            return false;
        Index prev = -1;
        for (Index p = rowPtr_[r]; p < rowPtr_[r + 1]; ++p) {
            if (colIdx_[p] <= prev || colIdx_[p] >= cols_)
                return false;
            prev = colIdx_[p];
        }
    }
    return true;
}

} // namespace rsqp
