#include "gridmodel/grid_model.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "linalg/symmetric_eigen.h"

namespace sckl::gridmodel {

GridCorrelationModel::GridCorrelationModel(
    const kernels::CovarianceKernel& kernel, geometry::BoundingBox die,
    std::size_t cells_per_side)
    : die_(die), cells_(cells_per_side) {
  require(cells_per_side > 0, "GridCorrelationModel: need at least one cell");
  require(die.width() > 0.0 && die.height() > 0.0,
          "GridCorrelationModel: degenerate die");
  const double dx = die.width() / static_cast<double>(cells_);
  const double dy = die.height() / static_cast<double>(cells_);
  centers_.reserve(cells_ * cells_);
  for (std::size_t j = 0; j < cells_; ++j)
    for (std::size_t i = 0; i < cells_; ++i)
      centers_.push_back(
          {die.min.x + dx * (static_cast<double>(i) + 0.5),
           die.min.y + dy * (static_cast<double>(j) + 0.5)});

  const std::size_t n = centers_.size();
  linalg::Matrix correlation(n, n);
  for (std::size_t a = 0; a < n; ++a)
    for (std::size_t b = a; b < n; ++b) {
      const double value = kernel(centers_[a], centers_[b]);
      correlation(a, b) = value;
      correlation(b, a) = value;
    }
  linalg::SymmetricEigenResult eigen = linalg::symmetric_eigen(correlation);
  eigenvalues_ = std::move(eigen.values);
  for (auto& v : eigenvalues_) v = std::max(v, 0.0);
  eigenvectors_ = std::move(eigen.vectors);
}

std::size_t GridCorrelationModel::cell_of(geometry::Point2 p) const {
  const double fx = (p.x - die_.min.x) / die_.width();
  const double fy = (p.y - die_.min.y) / die_.height();
  const auto clamp_cell = [this](double f) {
    const auto c = static_cast<long>(std::floor(f * static_cast<double>(cells_)));
    return static_cast<std::size_t>(
        std::clamp<long>(c, 0, static_cast<long>(cells_) - 1));
  };
  return clamp_cell(fy) * cells_ + clamp_cell(fx);
}

std::size_t GridCorrelationModel::components_for_variance(
    double fraction) const {
  require(fraction > 0.0 && fraction <= 1.0,
          "components_for_variance: fraction out of range");
  double total = 0.0;
  for (double v : eigenvalues_) total += v;
  double sum = 0.0;
  for (std::size_t r = 0; r < eigenvalues_.size(); ++r) {
    sum += eigenvalues_[r];
    if (sum >= fraction * total) return r + 1;
  }
  return eigenvalues_.size();
}

linalg::Matrix GridCorrelationModel::reduction_operator(std::size_t r) const {
  require(r > 0 && r <= eigenvalues_.size(),
          "GridCorrelationModel::reduction_operator: bad r");
  linalg::Matrix d(num_cells(), r);
  for (std::size_t j = 0; j < r; ++j) {
    const double root = std::sqrt(eigenvalues_[j]);
    for (std::size_t c = 0; c < num_cells(); ++c)
      d(c, j) = eigenvectors_(c, j) * root;
  }
  return d;
}

GridPcaSampler::GridPcaSampler(const GridCorrelationModel& model,
                               std::size_t r,
                               const std::vector<geometry::Point2>& locations) {
  require(!locations.empty(), "GridPcaSampler: no locations");
  const linalg::Matrix d = model.reduction_operator(r);
  // Gather each location's cell row, directly transposed: op(c, i) is PCA
  // component c at location i.
  linalg::Matrix op(r, locations.size());
  for (std::size_t i = 0; i < locations.size(); ++i) {
    const std::size_t cell = model.cell_of(locations[i]);
    for (std::size_t c = 0; c < r; ++c) op(c, i) = d(cell, c);
  }
  set_operator(std::move(op), "field.reconstruct.grid",
               "sckl.field.samples.grid");
}

}  // namespace sckl::gridmodel
