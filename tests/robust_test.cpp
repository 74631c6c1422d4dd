// Tests for the solver resilience layer: deterministic fault injection,
// error codes + context chaining, health reports, bounded retry, and —
// most importantly — every fallback chain exercised end-to-end:
//   Lanczos non-convergence  -> QL eigensolve stage (KleSolveInfo telemetry)
//   non-SPD mass matrix      -> cholesky_with_jitter (GeneralizedEigenInfo)
//   transient store read     -> bounded retry -> fresh solve (StoreHealth)
//   corrupt artifact         -> quarantine to <key>.sckl.bad -> fresh solve
//   out-of-mesh gate         -> nearest triangle (counted)
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/statistics.h"
#include "core/kle_health.h"
#include "core/kle_solver.h"
#include "field/kle_sampler.h"
#include "kernels/kernel_library.h"
#include "linalg/cholesky.h"
#include "linalg/generalized_eigen.h"
#include "linalg/kernel_operator.h"
#include "linalg/lanczos.h"
#include "linalg/symmetric_eigen.h"
#include "mesh/structured_mesher.h"
#include "robust/fault_injection.h"
#include "robust/health.h"
#include "robust/retry.h"
#include "store/artifact_store.h"
#include "store/kle_io.h"

namespace {

using namespace sckl;
namespace fs = std::filesystem;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("sckl_rb_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

store::KleArtifactConfig small_config() {
  store::KleArtifactConfig config;
  config.kernel_id = "gaussian";
  config.kernel_params = {2.0};
  config.mesh.kind = store::MeshSpec::Kind::kStructuredCross;
  config.mesh.target_triangles = 100;
  config.num_eigenpairs = 16;
  return config;
}

mesh::TriMesh small_mesh(std::size_t triangles = 200) {
  return mesh::structured_mesh_for_count(geometry::BoundingBox::unit_die(),
                                         triangles,
                                         mesh::StructuredPattern::kCross);
}

// --- error codes -----------------------------------------------------------

TEST(ErrorCodeTest, DefaultsToGenericAndCarriesCode) {
  const Error plain("boom");
  EXPECT_EQ(plain.code(), ErrorCode::kGeneric);
  const Error coded("disk hiccup", ErrorCode::kIoTransient);
  EXPECT_EQ(coded.code(), ErrorCode::kIoTransient);
  EXPECT_STREQ(coded.what(), "disk hiccup");
}

TEST(ErrorCodeTest, WithContextPrependsStageAndPreservesCode) {
  const Error inner("checksum mismatch", ErrorCode::kCorruptArtifact);
  const Error outer = inner.with_context("while reading 'x.sckl'");
  EXPECT_EQ(outer.code(), ErrorCode::kCorruptArtifact);
  const std::string what = outer.what();
  EXPECT_NE(what.find("while reading 'x.sckl'"), std::string::npos);
  EXPECT_NE(what.find("checksum mismatch"), std::string::npos);
}

TEST(ErrorCodeTest, ToStringCoversEveryCode) {
  EXPECT_STREQ(to_string(ErrorCode::kIoTransient), "io_transient");
  EXPECT_STREQ(to_string(ErrorCode::kCorruptArtifact), "corrupt_artifact");
  EXPECT_STREQ(to_string(ErrorCode::kNoConvergence), "no_convergence");
  EXPECT_STREQ(to_string(ErrorCode::kNonFinite), "non_finite");
  EXPECT_STREQ(to_string(ErrorCode::kNotPositiveDefinite),
               "not_positive_definite");
  EXPECT_STREQ(to_string(ErrorCode::kHealthCheckFailed),
               "health_check_failed");
}

// --- fault injector --------------------------------------------------------

TEST(FaultInjectorTest, DisarmedByDefaultAndZeroStats) {
  robust::FaultInjector::instance().disarm();
  EXPECT_FALSE(robust::FaultInjector::instance().armed());
  EXPECT_FALSE(robust::fault_injected(robust::FaultSite::kStoreRead));
  EXPECT_EQ(robust::FaultInjector::instance()
                .stats(robust::FaultSite::kStoreRead)
                .injected,
            0u);
}

TEST(FaultInjectorTest, BudgetIsCountedAndExact) {
  robust::ScopedFaultPlan plan("store_read:2");
  EXPECT_TRUE(robust::FaultInjector::instance().armed());
  EXPECT_TRUE(robust::fault_injected(robust::FaultSite::kStoreRead));
  EXPECT_TRUE(robust::fault_injected(robust::FaultSite::kStoreRead));
  // Budget exhausted: behaves normally again, and the injector disarms
  // (further consultations take the fast path and are not even counted).
  EXPECT_FALSE(robust::fault_injected(robust::FaultSite::kStoreRead));
  EXPECT_FALSE(robust::FaultInjector::instance().armed());
  const auto stats =
      robust::FaultInjector::instance().stats(robust::FaultSite::kStoreRead);
  EXPECT_EQ(stats.injected, 2u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST(FaultInjectorTest, SitesAreIndependent) {
  robust::ScopedFaultPlan plan("lanczos_convergence:1,cholesky_pivot:1");
  EXPECT_FALSE(robust::fault_injected(robust::FaultSite::kStoreRead));
  EXPECT_TRUE(robust::fault_injected(robust::FaultSite::kLanczosConvergence));
  EXPECT_TRUE(robust::fault_injected(robust::FaultSite::kCholeskyPivot));
  EXPECT_FALSE(robust::FaultInjector::instance().armed());
}

TEST(FaultInjectorTest, MalformedPlansThrow) {
  robust::FaultInjector::instance().disarm();
  EXPECT_THROW(robust::FaultInjector::instance().arm("bogus_site:1"), Error);
  EXPECT_THROW(robust::FaultInjector::instance().arm("store_read:abc"), Error);
  EXPECT_THROW(robust::FaultInjector::instance().arm("store_read"), Error);
  robust::FaultInjector::instance().disarm();
}

TEST(FaultInjectorTest, DisarmedCrashPointIsANoOp) {
  // The armed behaviour (_Exit with kCrashExitCode) is exercised by
  // tests/kill_loop_harness.cpp in forked children; in-process we can only
  // assert the disarmed fast path returns.
  robust::FaultInjector::instance().disarm();
  robust::crash_point(robust::FaultSite::kStoreWritePreFsync);
  robust::crash_point(robust::FaultSite::kStoreWritePreRename);
  robust::crash_point(robust::FaultSite::kStoreWritePostRename);
  robust::crash_point(robust::FaultSite::kStoreGcMidSweep);
  SUCCEED();
}

TEST(FaultInjectorTest, SkipSuffixDelaysInjection) {
  // "site:count@skip": behave normally for `skip` hits, then fail `count`.
  // The kill-loop harness uses this to march a crash point through a run.
  robust::ScopedFaultPlan plan("store_read:2@3");
  for (int i = 0; i < 3; ++i)
    EXPECT_FALSE(robust::fault_injected(robust::FaultSite::kStoreRead))
        << "skip hit " << i;
  EXPECT_TRUE(robust::fault_injected(robust::FaultSite::kStoreRead));
  EXPECT_TRUE(robust::fault_injected(robust::FaultSite::kStoreRead));
  // Budget exhausted: the injector disarms and this consultation takes the
  // uncounted fast path (as BudgetIsCountedAndExact documents).
  EXPECT_FALSE(robust::fault_injected(robust::FaultSite::kStoreRead));
  const auto stats =
      robust::FaultInjector::instance().stats(robust::FaultSite::kStoreRead);
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.injected, 2u);
}

TEST(FaultInjectorTest, SkipViaApiMatchesPlanGrammar) {
  robust::FaultInjector::instance().disarm();
  robust::FaultInjector::instance().arm(robust::FaultSite::kMcLeaseExpire, 1,
                                        2);
  EXPECT_FALSE(robust::fault_injected(robust::FaultSite::kMcLeaseExpire));
  EXPECT_FALSE(robust::fault_injected(robust::FaultSite::kMcLeaseExpire));
  EXPECT_TRUE(robust::fault_injected(robust::FaultSite::kMcLeaseExpire));
  EXPECT_FALSE(robust::FaultInjector::instance().armed());
  robust::FaultInjector::instance().disarm();
}

TEST(FaultInjectorTest, MalformedSkipSuffixesThrow) {
  robust::FaultInjector::instance().disarm();
  EXPECT_THROW(robust::FaultInjector::instance().arm("store_read:1@"), Error);
  EXPECT_THROW(robust::FaultInjector::instance().arm("store_read:1@xyz"),
               Error);
  EXPECT_THROW(robust::FaultInjector::instance().arm("store_read:@2"), Error);
  robust::FaultInjector::instance().disarm();
}

TEST(FaultInjectorTest, McSiteNamesAreStable) {
  // The CI kill-loop and SCKL_FAULTS plans name these in the wild; renames
  // would silently disarm them.
  EXPECT_STREQ(robust::to_string(robust::FaultSite::kMcLeaseExpire),
               "mc_lease_expire");
  EXPECT_STREQ(robust::to_string(robust::FaultSite::kMcLedgerWrite),
               "mc_ledger_write");
  EXPECT_STREQ(robust::to_string(robust::FaultSite::kMcWorkerCrash),
               "mc_worker_crash");
  EXPECT_EQ(robust::fault_site_from_name("mc_worker_crash"),
            robust::FaultSite::kMcWorkerCrash);
}

TEST(FaultInjectorTest, SiteNamesRoundTrip) {
  for (int i = 0; i < robust::kNumFaultSites; ++i) {
    const auto site = static_cast<robust::FaultSite>(i);
    const auto back = robust::fault_site_from_name(robust::to_string(site));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, site);
  }
  EXPECT_FALSE(robust::fault_site_from_name("nope").has_value());
}

// --- health report ---------------------------------------------------------

TEST(HealthReportTest, TracksWorstSeverityAndCounts) {
  robust::HealthReport report;
  EXPECT_EQ(report.worst(), robust::Severity::kInfo);
  EXPECT_TRUE(report.ok());
  report.add(robust::Severity::kInfo, "a", "fine");
  report.add(robust::Severity::kWarning, "b", "meh");
  EXPECT_EQ(report.worst(), robust::Severity::kWarning);
  EXPECT_TRUE(report.ok());  // default threshold is kError
  EXPECT_FALSE(report.ok(robust::Severity::kWarning));
  report.add(robust::Severity::kError, "c", "bad");
  EXPECT_EQ(report.count(robust::Severity::kWarning), 1u);
  EXPECT_FALSE(report.ok());
}

TEST(HealthReportTest, ThrowIfFatalListsFindingsWithCode) {
  robust::HealthReport report;
  report.add(robust::Severity::kError, "eigen_residual", "residual too big");
  EXPECT_NO_THROW(report.throw_if_fatal(robust::Severity::kFatal));
  try {
    report.throw_if_fatal();  // default threshold kError
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kHealthCheckFailed);
    EXPECT_NE(std::string(e.what()).find("eigen_residual"), std::string::npos);
  }
}

TEST(HealthReportTest, MetricsAreRecorded) {
  robust::HealthReport report;
  report.metric("max_eigen_residual", 1.5e-10);
  EXPECT_DOUBLE_EQ(report.metric_value("max_eigen_residual"), 1.5e-10);
  EXPECT_TRUE(std::isnan(report.metric_value("absent")));
  EXPECT_NE(report.to_string().find("max_eigen_residual"), std::string::npos);
}

// --- retry -----------------------------------------------------------------

TEST(RetryTest, SucceedsAfterTransientFailures) {
  robust::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff_seconds = 1e-6;
  int calls = 0;
  robust::RetryStats stats;
  const int value = robust::retry_bounded(
      policy,
      [&] {
        if (++calls < 3) throw Error("flaky", ErrorCode::kIoTransient);
        return 42;
      },
      [](const Error& e) { return e.code() == ErrorCode::kIoTransient; },
      &stats);
  EXPECT_EQ(value, 42);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.retried, 2);
}

TEST(RetryTest, NonRetryableErrorPropagatesImmediately) {
  robust::RetryPolicy policy;
  policy.initial_backoff_seconds = 1e-6;
  int calls = 0;
  EXPECT_THROW(
      robust::retry_bounded(
          policy,
          [&]() -> int {
            ++calls;
            throw Error("corrupt", ErrorCode::kCorruptArtifact);
          },
          [](const Error& e) { return e.code() == ErrorCode::kIoTransient; }),
      Error);
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, ExhaustedBudgetRethrowsLastError) {
  robust::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_seconds = 1e-6;
  int calls = 0;
  robust::RetryStats stats;
  EXPECT_THROW(robust::retry_bounded(
                   policy,
                   [&]() -> int {
                     ++calls;
                     throw Error("always", ErrorCode::kIoTransient);
                   },
                   [](const Error&) { return true; }, &stats),
               Error);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.retried, 2);
}

// --- cholesky diagnostics & jitter chain -----------------------------------

TEST(CholeskyResilienceTest, FailureNamesThePivot) {
  linalg::Matrix k(2, 2);
  k(0, 0) = 1.0;
  k(0, 1) = k(1, 0) = 0.0;
  k(1, 1) = -4.0;  // indefinite
  linalg::CholeskyFailure failure;
  EXPECT_FALSE(linalg::try_cholesky(k, &failure).has_value());
  EXPECT_EQ(failure.pivot_index, 1u);
  EXPECT_NEAR(failure.pivot_value, -4.0, 1e-12);
  try {
    linalg::cholesky(k);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotPositiveDefinite);
    EXPECT_NE(std::string(e.what()).find("pivot 1"), std::string::npos);
  }
}

TEST(CholeskyResilienceTest, InjectedPivotFaultFailsAnSpdMatrix) {
  linalg::Matrix k(2, 2);
  k(0, 0) = k(1, 1) = 2.0;
  k(0, 1) = k(1, 0) = 0.5;
  {
    robust::ScopedFaultPlan plan("cholesky_pivot:1");
    EXPECT_FALSE(linalg::try_cholesky(k).has_value());
  }
  EXPECT_TRUE(linalg::try_cholesky(k).has_value());  // disarmed again
}

TEST(CholeskyResilienceTest, JitterLadderAbsorbsInjectedFaults) {
  linalg::Matrix k(3, 3);
  for (std::size_t i = 0; i < 3; ++i) k(i, i) = 1.0;
  robust::ScopedFaultPlan plan("cholesky_pivot:2");
  const linalg::JitteredCholesky jittered =
      linalg::cholesky_with_jitter(k, 1e-10);
  // Two injected failures -> the ladder had to climb, so jitter is nonzero.
  EXPECT_GT(jittered.jitter, 0.0);
}

TEST(GeneralizedEigenTest, SemiDefiniteMassFallsBackToJitter) {
  // A = diag(3, 2, 1), M = diag(1, 1, 0): the exact Cholesky of M must fail
  // at pivot 2 and the jitter fallback must still produce finite pairs.
  const std::size_t n = 3;
  linalg::Matrix a(n, n), m(n, n);
  a(0, 0) = 3.0;
  a(1, 1) = 2.0;
  a(2, 2) = 1.0;
  m(0, 0) = m(1, 1) = 1.0;
  m(2, 2) = 0.0;
  linalg::GeneralizedEigenInfo info;
  const linalg::SymmetricEigenResult result =
      linalg::generalized_symmetric_eigen(a, m, &info);
  EXPECT_FALSE(info.mass_spd);
  EXPECT_GT(info.mass_jitter, 0.0);
  EXPECT_EQ(info.failure.pivot_index, 2u);
  for (double lambda : result.values) EXPECT_TRUE(std::isfinite(lambda));
}

TEST(GeneralizedEigenTest, InjectedMassFaultIsAbsorbedAndRecorded) {
  const std::size_t n = 3;
  linalg::Matrix a(n, n), m(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = static_cast<double>(n - i);
    m(i, i) = 1.0;
  }
  linalg::GeneralizedEigenInfo clean_info;
  const linalg::SymmetricEigenResult clean =
      linalg::generalized_symmetric_eigen(a, m, &clean_info);
  EXPECT_TRUE(clean_info.mass_spd);
  EXPECT_EQ(clean_info.mass_jitter, 0.0);

  // Budget 2: the exact factorization fails, then the jitter ladder's first
  // (jitter = 0) rung fails too, forcing a genuinely nonzero jitter.
  robust::ScopedFaultPlan plan("cholesky_pivot:2");
  linalg::GeneralizedEigenInfo info;
  const linalg::SymmetricEigenResult result =
      linalg::generalized_symmetric_eigen(a, m, &info);
  EXPECT_FALSE(info.mass_spd);
  EXPECT_GT(info.mass_jitter, 0.0);
  ASSERT_EQ(result.values.size(), clean.values.size());
  for (std::size_t i = 0; i < result.values.size(); ++i)
    EXPECT_NEAR(result.values[i], clean.values[i], 1e-8);
}

// --- lanczos residual gate & fallback chain --------------------------------

TEST(LanczosResilienceTest, ConvergedSolveReportsResiduals) {
  const mesh::TriMesh mesh = small_mesh();
  const kernels::GaussianKernel kernel(2.0);
  const linalg::Matrix b = core::assemble_galerkin_matrix(
      mesh, kernel, core::QuadratureRule::kCentroid1);
  linalg::LanczosOptions options;
  options.num_eigenpairs = 8;
  linalg::LanczosInfo info;
  const linalg::SymmetricEigenResult result =
      linalg::lanczos_largest(linalg::DenseKernelOperator(b), options, &info);
  EXPECT_TRUE(info.converged);
  EXPECT_FALSE(info.fault_injected);
  EXPECT_EQ(info.rejected_pairs, 0u);
  EXPECT_GE(info.iterations, 8u);
  EXPECT_LE(info.max_residual, options.best_effort_tolerance);
  for (double lambda : result.values) EXPECT_TRUE(std::isfinite(lambda));
}

TEST(LanczosResilienceTest, InjectedNonConvergenceThrowsNoConvergence) {
  const mesh::TriMesh mesh = small_mesh();
  const kernels::GaussianKernel kernel(2.0);
  const linalg::Matrix b = core::assemble_galerkin_matrix(
      mesh, kernel, core::QuadratureRule::kCentroid1);
  linalg::LanczosOptions options;
  options.num_eigenpairs = 8;
  robust::ScopedFaultPlan plan("lanczos_convergence:1");
  linalg::LanczosInfo info;
  try {
    linalg::lanczos_largest(linalg::DenseKernelOperator(b), options, &info);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNoConvergence);
  }
  // Telemetry was filled before the throw.
  EXPECT_TRUE(info.fault_injected);
  EXPECT_FALSE(info.converged);
}

TEST(KleSolverTest, LanczosFailureFallsBackToQlWithSameSpectrum) {
  const mesh::TriMesh mesh = small_mesh(300);
  const kernels::GaussianKernel kernel(2.0);
  const linalg::SymmetricEigenResult reference =
      linalg::symmetric_eigen(core::assemble_galerkin_matrix(
          mesh, kernel, core::QuadratureRule::kCentroid1));

  core::KleOptions options;
  options.num_eigenpairs = 12;
  robust::ScopedFaultPlan plan("lanczos_convergence:1");
  core::KleSolveInfo info;
  const core::KleResult recovered =
      core::solve_kle(mesh, kernel, options, &info);

  // The Lanczos stage failed, QL recovered, and both were recorded...
  EXPECT_EQ(info.operator_used, "ql");
  EXPECT_TRUE(info.fallback);
  EXPECT_TRUE(info.lanczos.fault_injected);
  EXPECT_NE(info.fallback_reason.find("lanczos"), std::string::npos);
  // ...and the recovered spectrum matches the dense reference exactly.
  ASSERT_EQ(recovered.num_eigenpairs(), 12u);
  for (std::size_t j = 0; j < recovered.num_eigenpairs(); ++j)
    EXPECT_NEAR(recovered.eigenvalue(j), reference.values[j], 1e-12);
}

TEST(KleSolverTest, CleanLanczosSolveRecordsStageAndClampAccounting) {
  const mesh::TriMesh mesh = small_mesh(300);
  const kernels::GaussianKernel kernel(2.0);
  core::KleOptions options;
  options.num_eigenpairs = 12;
  core::KleSolveInfo info;
  const core::KleResult kle = core::solve_kle(mesh, kernel, options, &info);
  EXPECT_EQ(info.operator_used, "dense");
  EXPECT_FALSE(info.fallback);
  EXPECT_EQ(info.clamped_eigenvalues, kle.clamped_count());
  EXPECT_DOUBLE_EQ(info.clamped_magnitude, kle.clamped_magnitude());
}

TEST(KleSolverTest, NonFiniteGalerkinMatrixIsRejected) {
  class NanKernel final : public kernels::CovarianceKernel {
   public:
    double operator()(geometry::Point2, geometry::Point2) const override {
      return std::numeric_limits<double>::quiet_NaN();
    }
    std::string name() const override { return "nan_kernel"; }
    std::unique_ptr<kernels::CovarianceKernel> clone() const override {
      return std::make_unique<NanKernel>();
    }
  };
  const mesh::TriMesh mesh = small_mesh(64);
  try {
    core::solve_kle(mesh, NanKernel{}, {});
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNonFinite);
    EXPECT_NE(std::string(e.what()).find("nan_kernel"), std::string::npos);
  }
}

// --- threaded assembly error order -----------------------------------------

// Thrown by PoisonedKernel at a throwing entry; carries the entry.
struct PoisonedEntry {
  std::size_t i;
  std::size_t k;
};

using Entries = std::set<std::pair<std::size_t, std::size_t>>;

// Gaussian kernel that returns NaN at some centroid-rule Galerkin entries
// (i, k), i <= k, and throws PoisonedEntry at others.
class PoisonedKernel final : public kernels::CovarianceKernel {
 public:
  PoisonedKernel(const mesh::TriMesh& mesh, Entries nan_at, Entries throw_at)
      : nan_at_(std::move(nan_at)), throw_at_(std::move(throw_at)) {
    for (std::size_t i = 0; i < mesh.num_triangles(); ++i)
      index_[{mesh.centroid(i).x, mesh.centroid(i).y}] = i;
  }
  double operator()(geometry::Point2 x, geometry::Point2 y) const override {
    const std::pair entry{index_.at({x.x, x.y}), index_.at({y.x, y.y})};
    if (throw_at_.count(entry)) throw PoisonedEntry{entry.first, entry.second};
    if (nan_at_.count(entry)) return std::numeric_limits<double>::quiet_NaN();
    return gaussian_(x, y);
  }
  std::string name() const override { return "poisoned_kernel"; }
  std::unique_ptr<kernels::CovarianceKernel> clone() const override {
    return std::make_unique<PoisonedKernel>(*this);
  }

 private:
  std::map<std::pair<double, double>, std::size_t> index_;
  Entries nan_at_;
  Entries throw_at_;
  kernels::GaussianKernel gaussian_{2.0};
};

// In both cases the row-major-later entry sits in tile (0, 0), which a
// worker claims first; the row-major-first one sits in a later tile.
TEST(AssemblyErrorOrderTest, NonFiniteNamesRowMajorFirstEntry) {
  const mesh::TriMesh mesh = small_mesh(300);
  ASSERT_GT(mesh.num_triangles(), 140u);
  const PoisonedKernel kernel(mesh, {{60, 63}, {3, 130}}, {});
  for (const std::size_t threads : {1, 4}) {
    try {
      core::assemble_galerkin_matrix(
          mesh, kernel, core::QuadratureRule::kCentroid1, threads);
      ADD_FAILURE() << "expected kNonFinite at " << threads << " threads";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kNonFinite);
      const std::string what = e.what();
      EXPECT_NE(what.find("(3, 130)"), std::string::npos) << what;
      EXPECT_NE(what.find("poisoned_kernel"), std::string::npos) << what;
    }
  }
}

TEST(AssemblyErrorOrderTest, KernelThrowRethrowsRowMajorFirstException) {
  const mesh::TriMesh mesh = small_mesh(300);
  ASSERT_GT(mesh.num_triangles(), 140u);
  // The NaN entry precedes both throws: a throw outranks any non-finite
  // entry, as in the serial loop that scanned B only after assembling it.
  const PoisonedKernel kernel(mesh, {{0, 1}}, {{10, 10}, {2, 100}});
  for (const std::size_t threads : {1, 4}) {
    try {
      core::assemble_galerkin_matrix(
          mesh, kernel, core::QuadratureRule::kCentroid1, threads);
      ADD_FAILURE() << "expected PoisonedEntry at " << threads << " threads";
    } catch (const PoisonedEntry& e) {
      EXPECT_EQ(e.i, 2u) << threads << " threads";
      EXPECT_EQ(e.k, 100u) << threads << " threads";
    }
  }
}

// --- KLE health validation -------------------------------------------------

TEST(KleHealthTest, HealthySolveIsClean) {
  const mesh::TriMesh mesh = small_mesh();
  const kernels::GaussianKernel kernel(2.0);
  core::KleOptions options;
  options.num_eigenpairs = 12;
  const core::KleResult kle = core::solve_kle(mesh, kernel, options);
  const linalg::Matrix b = core::assemble_galerkin_matrix(
      mesh, kernel, core::QuadratureRule::kCentroid1);
  const robust::HealthReport report = core::check_kle_health(kle, b);
  EXPECT_TRUE(report.ok(robust::Severity::kWarning)) << report.to_string();
  EXPECT_LT(report.metric_value("max_eigen_residual"), 1e-8);
  EXPECT_LT(report.metric_value("orthonormality_drift"), 1e-8);
  EXPECT_NO_THROW(report.throw_if_fatal(robust::Severity::kWarning));
}

TEST(KleHealthTest, BrokenOrthonormalityIsAnError) {
  const mesh::TriMesh mesh = small_mesh(64);
  const std::size_t n = mesh.num_triangles();
  linalg::Vector eigenvalues = {1.0, 0.5};
  linalg::Matrix coefficients(n, 2);
  for (std::size_t i = 0; i < n; ++i)
    coefficients(i, 0) = coefficients(i, 1) = 1.0;  // far from Phi-orthonormal
  const core::KleResult kle(mesh, std::move(eigenvalues),
                            std::move(coefficients));
  const robust::HealthReport report = core::check_kle_health(kle);
  EXPECT_FALSE(report.ok()) << report.to_string();
  EXPECT_GT(report.metric_value("orthonormality_drift"), 1e-3);
}

TEST(KleHealthTest, NanEigenvalueIsFatalAndThrows) {
  const mesh::TriMesh mesh = small_mesh(64);
  const std::size_t n = mesh.num_triangles();
  linalg::Vector eigenvalues = {1.0,
                                std::numeric_limits<double>::quiet_NaN()};
  linalg::Matrix coefficients(n, 2);
  const core::KleResult kle(mesh, std::move(eigenvalues),
                            std::move(coefficients));
  const robust::HealthReport report = core::check_kle_health(kle);
  EXPECT_EQ(report.worst(), robust::Severity::kFatal);
  try {
    report.throw_if_fatal();
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kHealthCheckFailed);
  }
}

TEST(KleHealthTest, MeshMismatchedGalerkinMatrixIsFatal) {
  const mesh::TriMesh mesh = small_mesh();
  const kernels::GaussianKernel kernel(2.0);
  core::KleOptions options;
  options.num_eigenpairs = 8;
  const core::KleResult kle = core::solve_kle(mesh, kernel, options);
  const linalg::Matrix wrong(4, 4);  // wrong basis size
  const robust::HealthReport report = core::check_kle_health(kle, wrong);
  EXPECT_EQ(report.worst(), robust::Severity::kFatal);
}

// --- out-of-mesh gate resolution -------------------------------------------

TEST(KleFieldSamplerTest, OutOfMeshGatesResolveToNearestAndAreCounted) {
  const mesh::TriMesh mesh = small_mesh();
  const kernels::GaussianKernel kernel(2.0);
  core::KleOptions options;
  options.num_eigenpairs = 8;
  const core::KleResult kle = core::solve_kle(mesh, kernel, options);

  // The die is [-1, 1]^2; the last two gates are legalized off it.
  const std::vector<geometry::Point2> locations = {
      {0.5, 0.5}, {0.25, 0.75}, {1.5, 1.5}, {-2.0, 0.4}};
  const field::KleFieldSampler sampler(kle, 4, locations);
  EXPECT_EQ(sampler.out_of_mesh_count(), 2u);
  EXPECT_EQ(sampler.num_locations(), locations.size());

  // Sampling still works and produces finite values for every location.
  linalg::Matrix block;
  sampler.sample_block(field::SampleRange{0, 8}, StreamKey{7, 0}, block);
  ASSERT_EQ(block.rows(), 8u);
  ASSERT_EQ(block.cols(), locations.size());
  for (std::size_t i = 0; i < block.rows(); ++i)
    for (std::size_t j = 0; j < block.cols(); ++j)
      EXPECT_TRUE(std::isfinite(block(i, j)));

  const std::vector<geometry::Point2> inside = {{0.5, 0.5}, {0.25, 0.75}};
  const field::KleFieldSampler clean(kle, 4, inside);
  EXPECT_EQ(clean.out_of_mesh_count(), 0u);
}

// --- store resilience chains -----------------------------------------------

TEST(StoreResilienceTest, TransientReadFaultIsRetriedThenServedFromDisk) {
  const fs::path root = scratch_dir("read_retry");
  const kernels::GaussianKernel kernel(2.0);
  const store::KleArtifactConfig config = small_config();
  {
    store::KleArtifactStore warm(root);
    EXPECT_EQ(warm.get_or_compute(config, kernel).source,
              store::FetchSource::kSolved);
  }
  store::StoreOptions options;
  options.retry.initial_backoff_seconds = 1e-6;
  store::KleArtifactStore cold(root, options);
  robust::ScopedFaultPlan plan("store_read:1");
  const store::FetchResult fetch = cold.get_or_compute(config, kernel);
  // One injected failure, one retry, then the disk copy was served.
  EXPECT_EQ(fetch.source, store::FetchSource::kDisk);
  const store::StoreHealth health = cold.health();
  EXPECT_EQ(health.read_retries, 1u);
  EXPECT_EQ(health.failed_reads, 0u);
  EXPECT_EQ(health.quarantined, 0u);
}

TEST(StoreResilienceTest, PersistentReadFaultFallsBackToFreshSolve) {
  const fs::path root = scratch_dir("read_exhaust");
  const kernels::GaussianKernel kernel(2.0);
  const store::KleArtifactConfig config = small_config();
  {
    store::KleArtifactStore warm(root);
    warm.get_or_compute(config, kernel);
  }
  store::StoreOptions options;
  options.retry.max_attempts = 3;
  options.retry.initial_backoff_seconds = 1e-6;
  store::KleArtifactStore cold(root, options);
  robust::ScopedFaultPlan plan("store_read:99");
  const store::FetchResult fetch = cold.get_or_compute(config, kernel);
  // Every read attempt failed; the chain ended in a fresh solve anyway.
  EXPECT_EQ(fetch.source, store::FetchSource::kSolved);
  ASSERT_NE(fetch.artifact, nullptr);
  EXPECT_GT(fetch.artifact->eigenvalue(0), 0.0);
  // A cold key probes the disk twice — once before the per-key solve lock
  // and once after acquiring it (a lock winner may have published while we
  // waited) — so a persistent fault is charged two retry rounds.
  const store::StoreHealth health = cold.health();
  EXPECT_EQ(health.read_retries, 4u);  // 2 rounds x (max_attempts - 1)
  EXPECT_EQ(health.failed_reads, 2u);
}

TEST(StoreResilienceTest, TransientWriteFaultIsRetriedAndStillPersists) {
  const fs::path root = scratch_dir("write_retry");
  const kernels::GaussianKernel kernel(2.0);
  const store::KleArtifactConfig config = small_config();
  store::StoreOptions options;
  options.retry.initial_backoff_seconds = 1e-6;
  store::KleArtifactStore store(root, options);
  robust::ScopedFaultPlan plan("store_write:1");
  const store::FetchResult fetch = store.get_or_compute(config, kernel);
  EXPECT_EQ(fetch.source, store::FetchSource::kSolved);
  EXPECT_TRUE(fs::exists(store.path_for(config)));
  EXPECT_EQ(store.health().write_retries, 1u);
  EXPECT_EQ(store.health().failed_writes, 0u);
}

TEST(StoreResilienceTest, PersistentWriteFaultDegradesToMemoryOnly) {
  const fs::path root = scratch_dir("write_exhaust");
  const kernels::GaussianKernel kernel(2.0);
  const store::KleArtifactConfig config = small_config();
  store::StoreOptions options;
  options.retry.max_attempts = 2;
  options.retry.initial_backoff_seconds = 1e-6;
  store::KleArtifactStore store(root, options);
  robust::ScopedFaultPlan plan("store_write:99");
  const store::FetchResult fetch = store.get_or_compute(config, kernel);
  // The result is fully usable despite persistence failing...
  ASSERT_NE(fetch.artifact, nullptr);
  EXPECT_GT(fetch.artifact->eigenvalue(0), 0.0);
  EXPECT_FALSE(fs::exists(store.path_for(config)));
  EXPECT_EQ(store.health().failed_writes, 1u);
  // ...and is served from memory on the next hit.
  robust::FaultInjector::instance().disarm();
  EXPECT_EQ(store.get_or_compute(config, kernel).source,
            store::FetchSource::kMemory);
}

TEST(StoreResilienceTest, CorruptArtifactIsQuarantinedAndResolved) {
  const fs::path root = scratch_dir("quarantine");
  const kernels::GaussianKernel kernel(2.0);
  const store::KleArtifactConfig config = small_config();
  fs::path artifact_path;
  {
    store::KleArtifactStore warm(root);
    warm.get_or_compute(config, kernel);
    artifact_path = warm.path_for(config);
  }
  // Flip bytes in the middle of the payload: CRC now rejects the file.
  {
    std::fstream f(artifact_path, std::ios::in | std::ios::out |
                                      std::ios::binary);
    f.seekp(64);
    const char garbage[4] = {'X', 'X', 'X', 'X'};
    f.write(garbage, sizeof(garbage));
  }
  store::KleArtifactStore cold(root);
  const store::FetchResult fetch = cold.get_or_compute(config, kernel);
  EXPECT_EQ(fetch.source, store::FetchSource::kSolved);
  EXPECT_EQ(cold.health().quarantined, 1u);
  EXPECT_EQ(cold.health().read_retries, 0u);  // corruption is not retryable

  // The evidence file exists, the healthy artifact was rewritten.
  const fs::path bad = artifact_path.string() + ".bad";
  EXPECT_TRUE(fs::exists(bad));
  EXPECT_TRUE(fs::exists(artifact_path));

  // ls() reports the quarantined entry; gc() purges it.
  std::size_t quarantined_entries = 0;
  for (const auto& entry : cold.ls())
    if (entry.quarantined) ++quarantined_entries;
  EXPECT_EQ(quarantined_entries, 1u);
  EXPECT_GE(cold.gc(), 1u);
  EXPECT_FALSE(fs::exists(bad));
  EXPECT_TRUE(fs::exists(artifact_path));  // healthy rewrite survives gc
}

TEST(StoreResilienceTest, GcNeverDeletesHealthyArtifactsOnTransientFaults) {
  const fs::path root = scratch_dir("gc_transient");
  const kernels::GaussianKernel kernel(2.0);
  const store::KleArtifactConfig config = small_config();
  store::StoreOptions options;
  options.retry.initial_backoff_seconds = 1e-6;
  store::KleArtifactStore store(root, options);
  store.get_or_compute(config, kernel);
  {
    // One injected failure: gc's validation read retries through it. The
    // only casualty is the now-stale solve lock left by the cold fetch.
    robust::ScopedFaultPlan plan("store_read:1");
    EXPECT_EQ(store.gc(), 1u);
    EXPECT_FALSE(fs::exists(store.lock_path_for(config)));
  }
  {
    // Unrecoverable transient faults prove nothing about the file — gc must
    // skip it, not delete it.
    robust::ScopedFaultPlan plan("store_read:99");
    EXPECT_EQ(store.gc(), 0u);
  }
  EXPECT_TRUE(fs::exists(store.path_for(config)));
}

TEST(StoreResilienceTest, ReadErrorCodesDistinguishTransientFromCorrupt) {
  const fs::path root = scratch_dir("codes");
  const fs::path missing = root / "nope.sckl";
  try {
    store::read_kle_file(missing.string());
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kIoTransient);
  }
  const fs::path garbage = root / "garbage.sckl";
  { std::ofstream(garbage) << "not an artifact"; }
  try {
    store::read_kle_file(garbage.string());
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptArtifact);
    // Context chaining names the file.
    EXPECT_NE(std::string(e.what()).find("garbage.sckl"), std::string::npos);
  }
}

// --- non-finite guards -----------------------------------------------------

TEST(NonFiniteGuardTest, StatisticsHelpersRejectNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> poisoned = {1.0, 2.0, nan, 4.0};
  for (auto fn : {+[](const std::vector<double>& v) { (void)mean_of(v); },
                  +[](const std::vector<double>& v) { (void)stddev_of(v); },
                  +[](const std::vector<double>& v) {
                    (void)quantile(v, 0.5);
                  }}) {
    try {
      fn(poisoned);
      FAIL() << "expected throw";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kNonFinite);
      EXPECT_NE(std::string(e.what()).find("index 2"), std::string::npos);
    }
  }
  // Finite input still works.
  EXPECT_DOUBLE_EQ(mean_of({1.0, 2.0, 3.0}), 2.0);
}

TEST(NonFiniteGuardTest, KernelEvaluationRejectsNonFiniteCoordinates) {
  const kernels::GaussianKernel kernel(2.0);
  const geometry::Point2 good{0.5, 0.5};
  const geometry::Point2 bad{std::numeric_limits<double>::quiet_NaN(), 0.5};
  try {
    kernel(good, bad);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNonFinite);
  }
  EXPECT_DOUBLE_EQ(kernel(good, good), 1.0);
}

TEST(NonFiniteGuardTest, KernelConstructorsRejectNonFiniteParameters) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(kernels::GaussianKernel{inf}, Error);
  EXPECT_THROW(kernels::GaussianKernel{nan}, Error);
  EXPECT_THROW(kernels::ExponentialKernel{inf}, Error);
  EXPECT_THROW((kernels::MaternKernel{inf, 2.0}), Error);
  EXPECT_THROW(kernels::LinearConeKernel{nan}, Error);
  EXPECT_NO_THROW(kernels::GaussianKernel{2.0});
}

}  // namespace
