// Matrix-free realizations of the scaled Galerkin operator (DESIGN.md §14).
//
// With the centroid rule the Galerkin matrix is pointwise explicit,
// B_ik = K(c_i, c_k) sqrt(a_i a_k) (eq. 21), so Lanczos never needs it
// materialized: the entries can be produced on the fly from the mesh and
// kernel. This header provides the two matrix-free KernelOperators that
// solve_kle's kMatrixFree stages run Lanczos on, H-matrix first:
//
//  - ExactKernelOperator: the exact matvec, tiled into panels that are
//    evaluated into a scratch tile and multiplied with the dispatched GEMM
//    microkernels, with row tiles claimed work-stealing style over the
//    shared thread pool. O(n^2) kernel evaluations per apply, O(n) memory.
//    Bit-reproducible across thread counts (each output row is one fixed
//    ascending reduction owned by exactly one worker).
//
//  - build_hmat_operator: the hierarchical low-rank compression
//    (linalg/hmat.h) of the same entries — O(n log n * k) memory and apply
//    cost, accurate to the configured ACA tolerance rather than exact.
//
// Both reject meshes/kernels whose entries are non-finite at first use (the
// kernel interface already throws kNonFinite at the offending evaluation).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "kernels/covariance_kernel.h"
#include "linalg/hmat.h"
#include "linalg/kernel_operator.h"
#include "mesh/tri_mesh.h"

namespace sckl::core {

/// linalg::EntrySource view of the centroid-rule Galerkin entries
/// B_ik = K(c_i, c_k) sqrt(a_i a_k). Borrows mesh and kernel.
class GalerkinEntrySource final : public linalg::EntrySource {
 public:
  GalerkinEntrySource(const mesh::TriMesh& mesh,
                      const kernels::CovarianceKernel& kernel);

  std::size_t dim() const override { return sqrt_area_.size(); }
  double entry(std::size_t i, std::size_t k) const override;
  void row_slice(std::size_t i, const std::size_t* cols, std::size_t count,
                 double* out) const override;

 private:
  const mesh::TriMesh& mesh_;
  const kernels::CovarianceKernel& kernel_;
  std::vector<double> sqrt_area_;
};

/// Exact matrix-free matvec: y_i = sum_k K(c_i, c_k) sqrt(a_i a_k) x_k,
/// computed tile by tile through the blocked GEMM kernels. Borrows mesh and
/// kernel — both must outlive the operator.
class ExactKernelOperator final : public linalg::KernelOperator {
 public:
  ExactKernelOperator(const mesh::TriMesh& mesh,
                      const kernels::CovarianceKernel& kernel,
                      std::size_t num_threads = 1);

  std::size_t dim() const override { return source_.dim(); }
  void apply(const linalg::Vector& x, linalg::Vector& y) const override;
  const char* name() const override { return "exact"; }

 private:
  GalerkinEntrySource source_;
  std::size_t num_threads_ = 1;
};

/// Builds the hierarchical (tile tree + ACA) compression of the Galerkin
/// operator over the mesh's triangle centroids. Throws kOverloaded when
/// options.max_bytes is exceeded. The mesh/kernel are only read during the
/// build; the returned operator is self-contained.
std::unique_ptr<linalg::HMatrix> build_hmat_operator(
    const mesh::TriMesh& mesh, const kernels::CovarianceKernel& kernel,
    const linalg::HmatOptions& options = {});

}  // namespace sckl::core
