// Quickstart: the complete KLE workflow in ~50 lines.
//
//  1. Describe the intra-die spatial correlation with a covariance kernel.
//  2. Mesh the (normalized) die.
//  3. Solve the KLE numerically (Galerkin + centroid quadrature).
//  4. Pick the truncation r with the paper's 1%-variance rule.
//  5. Sample the random field from just r independent normals.
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "common/rng.h"
#include "core/kle_solver.h"
#include "core/truncation.h"
#include "field/kle_sampler.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "mesh/refine.h"

int main() {
  using namespace sckl;

  // 1. The paper's Gaussian kernel, with its decay rate fitted in 2-D to
  //    the measurement-backed linear correlation model.
  const kernels::GaussianKernel kernel(kernels::paper_gaussian_c());
  std::printf("kernel: %s\n", kernel.name().c_str());

  // 2. Quality-triangulate the normalized die [-1,1]^2, max element area
  //    0.1%% of the die (the paper's Triangle configuration).
  const mesh::TriMesh mesh = mesh::paper_mesh();
  std::printf("mesh:   n = %zu triangles, min angle %.1f deg\n",
              mesh.num_triangles(), mesh.quality().min_angle_degrees);

  // 3. Compute the top 200 KLE eigenpairs (the paper computes m = 200; the
  //    truncation rule needs the tail bound lambda_m (n - m) to be small).
  core::KleOptions options;
  options.num_eigenpairs = 200;
  const core::KleResult kle = core::solve_kle(mesh, kernel, options);
  std::printf("kle:    lambda_1 = %.4f, lambda_10 = %.4f, lambda_200 = %.2e\n",
              kle.eigenvalue(0), kle.eigenvalue(9), kle.eigenvalue(199));

  // 4. Truncate with the paper's criterion (1% discarded-variance bound).
  const std::size_t r =
      core::select_truncation(kle.eigenvalues(), mesh.num_triangles(), 0.01);
  std::printf("trunc:  r = %zu random variables represent the whole die\n",
              r);

  // 5. Reconstruct the field at a few device locations from an r-dim draw.
  const std::vector<geometry::Point2> devices = {
      {-0.8, -0.8}, {-0.75, -0.8}, {0.0, 0.0}, {0.8, 0.8}};
  const field::KleFieldSampler sampler(kle, r, devices);
  Rng rng(1);
  linalg::Matrix values;  // one sample (row) at the 4 devices
  sampler.reconstruct(linalg::Matrix::from_rows({rng.normal_vector(r)}),
                      values);
  std::printf("sample: normalized parameter values at 4 devices:\n");
  for (std::size_t i = 0; i < devices.size(); ++i)
    std::printf("        (%5.2f, %5.2f) -> %+.4f\n", devices[i].x,
                devices[i].y, values(0, i));
  std::printf("        (the first two devices are neighbors: their values"
              " track; the far corners do not)\n");
  return 0;
}
