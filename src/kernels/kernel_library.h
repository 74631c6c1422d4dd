// Concrete covariance kernels.
//
// The library covers every kernel the paper discusses:
//  - GaussianKernel         exp(-c v^2)            the paper's test kernel
//  - ExponentialKernel      exp(-c v)              Liu [16] style
//  - SeparableL1Kernel      exp(-c(|dx| + |dy|))   eq. 5, analytically solvable
//  - RadialMagnitudeKernel  exp(-c | |x| - |y| |)  Bhardwaj [2]'s kernel; the
//                           paper criticizes it (perfect correlation on
//                           origin-centric circles) — kept for the ablation
//  - MaternKernel           eq. 6, the Xiong [1] extraction family (modified
//                           Bessel function of the second kind)
//  - LinearConeKernel       max(0, 1 - v/rho)      Friedberg [12] measurement
//                           fit; valid only in restricted settings [1]
//  - SphericalKernel        compactly supported, always valid in 2-D
#pragma once

#include "kernels/covariance_kernel.h"

namespace sckl::kernels {

/// Squared-exponential kernel exp(-c v^2) (Fig. 1a of the paper).
class GaussianKernel final : public IsotropicKernel {
 public:
  explicit GaussianKernel(double c);
  double radial(double v) const override;
  std::string name() const override;
  std::unique_ptr<CovarianceKernel> clone() const override;
  double c() const { return c_; }

 private:
  double c_;
};

/// Isotropic exponential kernel exp(-c v).
class ExponentialKernel final : public IsotropicKernel {
 public:
  explicit ExponentialKernel(double c);
  double radial(double v) const override;
  std::string name() const override;
  std::unique_ptr<CovarianceKernel> clone() const override;
  double c() const { return c_; }

 private:
  double c_;
};

/// Separable L1 exponential kernel exp(-c(|x1-y1| + |x2-y2|)) (eq. 5). Not
/// isotropic; admits the analytic 1-D product solution used as the
/// validation oracle for the Galerkin solver.
class SeparableL1Kernel final : public CovarianceKernel {
 public:
  explicit SeparableL1Kernel(double c);
  double operator()(geometry::Point2 x, geometry::Point2 y) const override;
  std::string name() const override;
  std::unique_ptr<CovarianceKernel> clone() const override;
  double c() const { return c_; }

 private:
  double c_;
};

/// exp(-c | r_x - r_y |) with r the distance from the die origin; the
/// physically unrealistic kernel of [2] that the paper's generic method
/// supersedes.
class RadialMagnitudeKernel final : public CovarianceKernel {
 public:
  explicit RadialMagnitudeKernel(double c);
  double operator()(geometry::Point2 x, geometry::Point2 y) const override;
  std::string name() const override;
  std::unique_ptr<CovarianceKernel> clone() const override;
  double c() const { return c_; }

 private:
  double c_;
};

/// The Matern-family kernel of eq. 6:
///   K(v) = 2 (b v / 2)^(s-1) B_{s-1}(b v) / Gamma(s-1),   K(0) = 1,
/// with B the modified Bessel function of the second kind. Requires s > 1.
class MaternKernel final : public IsotropicKernel {
 public:
  MaternKernel(double b, double s);
  double radial(double v) const override;
  std::string name() const override;
  std::unique_ptr<CovarianceKernel> clone() const override;
  double b() const { return b_; }
  double s() const { return s_; }

 private:
  double b_;
  double s_;
  double log_gamma_;  // precomputed log Gamma(s-1)
};

/// Linear "cone" kernel max(0, 1 - v/rho) (Friedberg [12]).
class LinearConeKernel final : public IsotropicKernel {
 public:
  explicit LinearConeKernel(double rho);
  double radial(double v) const override;
  std::string name() const override;
  std::unique_ptr<CovarianceKernel> clone() const override;
  double rho() const { return rho_; }

 private:
  double rho_;
};

/// Spherical kernel 1 - 1.5(v/rho) + 0.5(v/rho)^3 for v < rho, else 0.
class SphericalKernel final : public IsotropicKernel {
 public:
  explicit SphericalKernel(double rho);
  double radial(double v) const override;
  std::string name() const override;
  std::unique_ptr<CovarianceKernel> clone() const override;
  double rho() const { return rho_; }

 private:
  double rho_;
};

}  // namespace sckl::kernels
