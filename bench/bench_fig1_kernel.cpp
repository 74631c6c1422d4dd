// Fig. 1 of the paper:
//  (a) the Gaussian covariance kernel K(x, 0) over the normalized die,
//  (b) two random outcomes of the normalized parameter field across the
//      chip, drawn from the KLE of that kernel.
// Prints both as grid series (x, y, value) suitable for surface plotting.
//
// Flags: --c=<decay> (default: the paper's 2-D linear-cone fit)
//        --grid=<points per axis> (default 17)
//        --r=<eigenpairs for the outcome sampler> (default 25)
#include <cstdio>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/kle_solver.h"
#include "field/kle_sampler.h"
#include "kernels/kernel_fit.h"
#include "kernels/kernel_library.h"
#include "mesh/refine.h"

int main(int argc, char** argv) {
  using namespace sckl;
  const CliFlags flags(argc, argv);
  const double c = flags.get_double("c", kernels::paper_gaussian_c());
  const long grid = flags.get_int("grid", 17);
  const auto r = static_cast<std::size_t>(flags.get_int("r", 25));

  const kernels::GaussianKernel kernel(c);
  std::printf("# Fig 1(a): %s over D = [-1,1]^2, x fixed at the origin\n",
              kernel.name().c_str());

  TextTable surface;
  surface.set_header({"y1", "y2", "K(0, y)"});
  for (long i = 0; i < grid; ++i) {
    for (long j = 0; j < grid; ++j) {
      const double y1 = -1.0 + 2.0 * static_cast<double>(i) /
                                   static_cast<double>(grid - 1);
      const double y2 = -1.0 + 2.0 * static_cast<double>(j) /
                                   static_cast<double>(grid - 1);
      surface.add_numeric_row({y1, y2, kernel({0.0, 0.0}, {y1, y2})});
    }
  }
  std::fputs(surface.to_string().c_str(), stdout);

  std::printf("\n# Fig 1(b): two outcomes of the normalized field (r = %zu"
              " KLE random variables)\n",
              r);
  const mesh::TriMesh mesh = mesh::paper_mesh();
  core::KleOptions options;
  options.num_eigenpairs = r;
  const core::KleResult kle = core::solve_kle(mesh, kernel, options);

  std::vector<geometry::Point2> probes;
  for (long i = 0; i < grid; ++i)
    for (long j = 0; j < grid; ++j)
      probes.push_back({-0.99 + 1.98 * static_cast<double>(i) /
                                    static_cast<double>(grid - 1),
                        -0.99 + 1.98 * static_cast<double>(j) /
                                    static_cast<double>(grid - 1)});
  const field::KleFieldSampler sampler(kle, r, probes);

  Rng rng(flags.get_int("seed", 2008));
  TextTable outcomes;
  outcomes.set_header({"x", "y", "outcome1", "outcome2"});
  const linalg::Vector xi1 = rng.normal_vector(r);
  const linalg::Vector xi2 = rng.normal_vector(r);
  linalg::Matrix samples;  // row k = outcome k + 1
  sampler.reconstruct(linalg::Matrix::from_rows({xi1, xi2}), samples);
  for (std::size_t p = 0; p < probes.size(); ++p)
    outcomes.add_numeric_row(
        {probes[p].x, probes[p].y, samples(0, p), samples(1, p)});
  std::fputs(outcomes.to_string().c_str(), stdout);
  std::printf("\n# mesh: n = %zu triangles, min angle %.1f deg\n",
              mesh.num_triangles(), mesh.quality().min_angle_degrees);
  return 0;
}
