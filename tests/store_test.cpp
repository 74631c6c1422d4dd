// Tests for the src/store/ artifact subsystem: binary round-trips, format
// rejection, content-hash keying, LRU behaviour, get_or_compute, advisory
// file locking, fsck recovery, and solve-stampede dedup.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "field/kle_sampler.h"
#include "kernels/kernel_library.h"
#include "robust/fault_injection.h"
#include "store/artifact_store.h"
#include "store/file_lock.h"
#include "store/key_hash.h"
#include "store/kle_io.h"
#include "store/record_log.h"
#include "store/recovery.h"

namespace {

using namespace sckl;
namespace fs = std::filesystem;

store::KleArtifactConfig small_config() {
  store::KleArtifactConfig config;
  config.kernel_id = "gaussian";
  config.kernel_params = {2.0};
  config.mesh.kind = store::MeshSpec::Kind::kStructuredCross;
  config.mesh.target_triangles = 100;
  config.num_eigenpairs = 16;
  return config;
}

store::StoredKleResult small_artifact() {
  const kernels::GaussianKernel kernel(2.0);
  return {small_config(), store::solve_artifact(small_config(), kernel)};
}

std::vector<std::uint8_t> encode(const store::StoredKleResult& artifact) {
  return store::encode_kle(artifact.config, artifact.kle);
}

/// Fresh scratch directory under the gtest temp root.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("sckl_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

bool bit_equal(double a, double b) {
  std::uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

// --- kle_io ----------------------------------------------------------------

TEST(KleIoTest, RoundTripIsBitExact) {
  const store::StoredKleResult original = small_artifact();
  const std::vector<std::uint8_t> bytes = encode(original);
  const store::StoredKleResult copy = store::decode_kle(bytes);

  const mesh::TriMesh& mesh_a = original.kle.mesh();
  const mesh::TriMesh& mesh_b = copy.kle.mesh();
  ASSERT_EQ(mesh_b.num_vertices(), mesh_a.num_vertices());
  ASSERT_EQ(mesh_b.num_triangles(), mesh_a.num_triangles());
  for (std::size_t v = 0; v < mesh_b.num_vertices(); ++v) {
    EXPECT_TRUE(bit_equal(mesh_b.vertices()[v].x, mesh_a.vertices()[v].x));
    EXPECT_TRUE(bit_equal(mesh_b.vertices()[v].y, mesh_a.vertices()[v].y));
  }
  EXPECT_EQ(mesh_b.triangle_indices(), mesh_a.triangle_indices());

  const auto& lambda_a = original.kle.eigenvalues();
  const auto& lambda_b = copy.kle.eigenvalues();
  ASSERT_EQ(lambda_a.size(), lambda_b.size());
  for (std::size_t j = 0; j < lambda_a.size(); ++j)
    EXPECT_TRUE(bit_equal(lambda_a[j], lambda_b[j])) << "lambda " << j;

  const auto& d_a = original.kle.coefficients();
  const auto& d_b = copy.kle.coefficients();
  ASSERT_EQ(d_a.rows(), d_b.rows());
  ASSERT_EQ(d_a.cols(), d_b.cols());
  for (std::size_t i = 0; i < d_a.rows(); ++i)
    for (std::size_t j = 0; j < d_a.cols(); ++j)
      EXPECT_TRUE(bit_equal(d_a(i, j), d_b(i, j))) << "d(" << i << "," << j
                                                   << ")";

  EXPECT_EQ(copy.config.kernel_id, original.config.kernel_id);
  EXPECT_EQ(copy.config.kernel_params, original.config.kernel_params);
  EXPECT_EQ(store::artifact_key(copy.config),
            store::artifact_key(original.config));
}

TEST(KleIoTest, FileRoundTripMatchesBufferRoundTrip) {
  const store::StoredKleResult original = small_artifact();
  const fs::path path = scratch_dir("io_file") / "artifact.sckl";
  store::write_kle_file(path.string(), original.config, original.kle);
  const store::StoredKleResult loaded = store::read_kle_file(path.string());
  EXPECT_EQ(encode(loaded), encode(original));
}

TEST(KleIoTest, TruncatedFileIsRejected) {
  const std::vector<std::uint8_t> bytes = encode(small_artifact());
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{3}, std::size_t{17},
        bytes.size() / 2, bytes.size() - 1}) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() + static_cast<long>(keep));
    EXPECT_THROW(store::decode_kle(cut), Error) << "kept " << keep << " bytes";
  }
}

TEST(KleIoTest, CorruptedPayloadIsRejectedByChecksum) {
  std::vector<std::uint8_t> bytes = encode(small_artifact());
  bytes[bytes.size() / 2] ^= 0x40;  // flip one payload bit
  try {
    store::decode_kle(bytes);
    FAIL() << "corrupted payload must not decode";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
}

TEST(KleIoTest, WrongMagicAndVersionAreRejected) {
  const std::vector<std::uint8_t> bytes = encode(small_artifact());

  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_THROW(store::decode_kle(bad_magic), Error);

  std::vector<std::uint8_t> bad_version = bytes;
  bad_version[4] = 0x7F;  // version 127, little-endian low byte
  try {
    store::decode_kle(bad_version);
    FAIL() << "future version must not decode";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(KleIoTest, EncodedBytesArePinned) {
  // A literal artifact (no solve, no libm call) pins the version-1 byte
  // layout, so stores written by earlier builds stay readable.
  store::KleArtifactConfig config;
  config.kernel_id = "gaussian";
  config.kernel_params = {2.0};
  config.mesh.kind = store::MeshSpec::Kind::kStructuredCross;
  config.mesh.target_triangles = 2;
  config.num_eigenpairs = 2;
  mesh::TriMesh mesh({{-1.0, -1.0}, {1.0, -1.0}, {1.0, 1.0}, {-1.0, 1.0}},
                     {{0, 1, 2}, {0, 2, 3}});
  const core::KleResult kle(std::move(mesh), {1.5, 0.5},
                            linalg::Matrix::from_rows({{0.5, 0.25},
                                                       {0.5, -0.25}}));
  const std::vector<std::uint8_t> bytes = store::encode_kle(config, kle);
  ASSERT_EQ(bytes.size(), 316u);
  std::uint64_t fnv = 14695981039346656037ull;  // plain FNV-1a 64
  for (const std::uint8_t byte : bytes) {
    fnv ^= byte;
    fnv *= 1099511628211ull;
  }
  EXPECT_EQ(fnv, 0xdc09478cecc55a19ull);
}

TEST(KleIoTest, StoredResultOwnsItsMesh) {
  // A deserialized artifact must stay fully usable with no external mesh:
  // the decoded KleResult owns the mesh it was read with.
  std::unique_ptr<store::StoredKleResult> copy;
  {
    const store::StoredKleResult original = small_artifact();
    copy = std::make_unique<store::StoredKleResult>(
        store::decode_kle(encode(original)));
    // `original` (and its mesh) die here.
  }
  EXPECT_GT(copy->kle.eigenvalue(0), 0.0);
  EXPECT_GE(copy->kle.eigenfunction_value(0, {0.1, -0.2}), -1e9);
  const std::vector<geometry::Point2> gates{{0.0, 0.0}, {0.5, 0.5}};
  const field::KleFieldSampler sampler(copy->kle, 8, gates);
  linalg::Matrix block;
  sampler.sample_block(field::SampleRange{0, 4}, StreamKey{7, 0}, block);
  EXPECT_EQ(block.rows(), 4u);
  EXPECT_EQ(block.cols(), gates.size());
}

// --- key_hash --------------------------------------------------------------

TEST(KeyHashTest, SameConfigSameKey) {
  EXPECT_EQ(store::artifact_key(small_config()),
            store::artifact_key(small_config()));
}

TEST(KeyHashTest, AnyFieldDeltaChangesKey) {
  const std::uint64_t base = store::artifact_key(small_config());

  store::KleArtifactConfig c = small_config();
  c.kernel_id = "exponential";
  EXPECT_NE(store::artifact_key(c), base);

  c = small_config();
  c.kernel_params[0] = 2.0000000001;
  EXPECT_NE(store::artifact_key(c), base);

  c = small_config();
  c.die.max.x = 0.5;
  EXPECT_NE(store::artifact_key(c), base);

  c = small_config();
  c.mesh.kind = store::MeshSpec::Kind::kStructuredDiagonal;
  EXPECT_NE(store::artifact_key(c), base);

  c = small_config();
  c.mesh.target_triangles += 1;
  EXPECT_NE(store::artifact_key(c), base);

  c = small_config();
  c.mesh.area_fraction *= 2.0;
  EXPECT_NE(store::artifact_key(c), base);

  c = small_config();
  c.mesh.mesher_seed += 1;
  EXPECT_NE(store::artifact_key(c), base);

  c = small_config();
  c.quadrature = core::QuadratureRule::kSymmetric3;
  EXPECT_NE(store::artifact_key(c), base);

  c = small_config();
  c.num_eigenpairs += 1;
  EXPECT_NE(store::artifact_key(c), base);
}

TEST(KeyHashTest, KeyStringIsFixedWidthHex) {
  EXPECT_EQ(store::key_string(0), "0000000000000000");
  EXPECT_EQ(store::key_string(0xDEADBEEFull), "00000000deadbeef");
  EXPECT_EQ(store::key_string(~std::uint64_t{0}), "ffffffffffffffff");
}

TEST(KeyHashTest, DescribeKernelMatchesLibraryTypes) {
  std::string id;
  std::vector<double> params;
  store::describe_kernel(kernels::GaussianKernel(2.33), id, params);
  EXPECT_EQ(id, "gaussian");
  ASSERT_EQ(params.size(), 1u);
  EXPECT_DOUBLE_EQ(params[0], 2.33);
  store::describe_kernel(kernels::MaternKernel(2.0, 3.0), id, params);
  EXPECT_EQ(id, "matern");
  EXPECT_EQ(params, (std::vector<double>{2.0, 3.0}));
  store::describe_kernel(kernels::SphericalKernel(1.5), id, params);
  EXPECT_EQ(id, "spherical");
  EXPECT_EQ(params, (std::vector<double>{1.5}));
}

/// The artifact key of small_config() with its kernel replaced by `kernel`.
std::uint64_t key_of(const kernels::CovarianceKernel& kernel) {
  store::KleArtifactConfig config = small_config();
  store::describe_kernel(kernel, config.kernel_id, config.kernel_params);
  return store::artifact_key(config);
}

// Every library family round-trips through its descriptor: make_kernel
// rebuilds a kernel with the same bits and the same key, and a parameter
// that differs past the six digits name() prints still changes the key.
TEST(KeyHashTest, DescribeKernelRoundTripsEveryFamily) {
  std::vector<std::unique_ptr<kernels::CovarianceKernel>> library;
  library.push_back(std::make_unique<kernels::GaussianKernel>(2.3456781));
  library.push_back(std::make_unique<kernels::ExponentialKernel>(1.5000003));
  library.push_back(std::make_unique<kernels::SeparableL1Kernel>(0.7000001));
  library.push_back(
      std::make_unique<kernels::MaternKernel>(3.0000002, 2.5000001));
  library.push_back(std::make_unique<kernels::LinearConeKernel>(1.1000004));
  library.push_back(
      std::make_unique<kernels::RadialMagnitudeKernel>(2.0000001));
  library.push_back(std::make_unique<kernels::SphericalKernel>(1.2345678));
  const std::vector<std::pair<geometry::Point2, geometry::Point2>> points = {
      {{0.0, 0.0}, {1.0, 0.0}},
      {{0.1, 0.2}, {0.7, 0.4}},
      {{0.5, 0.9}, {0.3, 0.1}}};
  for (const auto& kernel : library) {
    SCOPED_TRACE(kernel->name());
    std::string id;
    std::vector<double> params;
    store::describe_kernel(*kernel, id, params);
    const auto rebuilt = store::make_kernel(id, params);
    for (const auto& [x, y] : points)
      EXPECT_EQ(std::bit_cast<std::uint64_t>((*rebuilt)(x, y)),
                std::bit_cast<std::uint64_t>((*kernel)(x, y)));
    EXPECT_EQ(key_of(*rebuilt), key_of(*kernel));
  }

  const kernels::SphericalKernel spherical_a(1.2345678);
  const kernels::SphericalKernel spherical_b(1.2345681);
  ASSERT_EQ(spherical_a.name(), spherical_b.name());
  EXPECT_NE(key_of(spherical_a), key_of(spherical_b));
  const kernels::RadialMagnitudeKernel radial_a(2.0000001);
  const kernels::RadialMagnitudeKernel radial_b(2.0000004);
  ASSERT_EQ(radial_a.name(), radial_b.name());
  EXPECT_NE(key_of(radial_a), key_of(radial_b));
}

// --- LruCache --------------------------------------------------------------

TEST(LruCacheTest, EvictsLeastRecentlyUsedAndCounts) {
  store::LruCache<int, int> cache(300);
  auto value = [](int v) { return std::make_shared<const int>(v); };
  cache.put(1, value(10), 100);
  cache.put(2, value(20), 100);
  cache.put(3, value(30), 100);
  EXPECT_EQ(cache.stats().entries, 3u);

  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_NE(cache.get(1), nullptr);
  cache.put(4, value(40), 100);

  EXPECT_EQ(cache.get(2), nullptr);  // evicted
  ASSERT_NE(cache.get(1), nullptr);
  ASSERT_NE(cache.get(3), nullptr);
  ASSERT_NE(cache.get(4), nullptr);
  EXPECT_EQ(*cache.get(4), 40);

  const store::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.insertions, 4u);
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.bytes, 300u);
  EXPECT_EQ(stats.misses, 1u);   // the get(2) after eviction
  EXPECT_GE(stats.hits, 5u);     // 1 touch + 4 verification gets
}

TEST(LruCacheTest, OversizedEntryIsNotCached) {
  store::LruCache<int, int> cache(100);
  cache.put(1, std::make_shared<const int>(1), 101);
  EXPECT_EQ(cache.get(1), nullptr);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().oversized_rejects, 1u);
}

TEST(LruCacheTest, OversizedEntryDoesNotFlushResidents) {
  // An artifact larger than the whole budget must pass through without
  // evicting everything that does fit — flushing residents would trade one
  // guaranteed miss for many.
  store::LruCache<int, int> cache(100);
  cache.put(1, std::make_shared<const int>(10), 40);
  cache.put(2, std::make_shared<const int>(20), 40);
  cache.put(3, std::make_shared<const int>(30), 5000);  // oversized

  EXPECT_EQ(cache.get(3), nullptr);
  ASSERT_NE(cache.get(1), nullptr);
  ASSERT_NE(cache.get(2), nullptr);
  const store::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 80u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.oversized_rejects, 1u);
  EXPECT_EQ(stats.insertions, 2u);  // the oversized put never inserted
}

TEST(LruCacheTest, ReplacingAKeyUpdatesByteCharge) {
  store::LruCache<int, int> cache(200);
  cache.put(1, std::make_shared<const int>(1), 150);
  cache.put(1, std::make_shared<const int>(2), 50);
  EXPECT_EQ(cache.stats().bytes, 50u);
  EXPECT_EQ(*cache.get(1), 2);
}

TEST(LruCacheTest, ConcurrentMixedUseIsSafe) {
  store::LruCache<int, int> cache(64 * 10);
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        const int key = (t * 31 + i) % 23;
        if (auto hit = cache.get(key)) {
          EXPECT_EQ(*hit, key);
        } else {
          cache.put(key, std::make_shared<const int>(key), 64);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const store::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 4u * 500u);
  EXPECT_LE(stats.bytes, stats.byte_budget);
}

// --- KleArtifactStore ------------------------------------------------------

TEST(ArtifactStoreTest, GetOrComputeMatchesFreshSolveBitExactly) {
  const fs::path root = scratch_dir("store_equiv");
  const kernels::GaussianKernel kernel(2.0);
  const store::KleArtifactConfig config = small_config();

  store::KleArtifactStore store(root);
  const store::FetchResult cold = store.get_or_compute(config, kernel);
  EXPECT_EQ(cold.source, store::FetchSource::kSolved);

  const core::KleResult fresh = store::solve_artifact(config, kernel);
  EXPECT_EQ(store::encode_kle(config, *cold.artifact),
            store::encode_kle(config, fresh));
}

TEST(ArtifactStoreTest, MemoryThenDiskHitsAndStats) {
  const fs::path root = scratch_dir("store_hits");
  const kernels::GaussianKernel kernel(2.0);
  const store::KleArtifactConfig config = small_config();

  store::KleArtifactStore store(root);
  EXPECT_FALSE(store.contains(config));
  const store::FetchResult cold = store.get_or_compute(config, kernel);
  EXPECT_EQ(cold.source, store::FetchSource::kSolved);
  EXPECT_TRUE(store.contains(config));
  EXPECT_TRUE(fs::exists(store.path_for(config)));

  const store::FetchResult warm = store.get_or_compute(config, kernel);
  EXPECT_EQ(warm.source, store::FetchSource::kMemory);
  EXPECT_EQ(warm.artifact.get(), cold.artifact.get());  // same shared object
  EXPECT_EQ(store.cache_stats().hits, 1u);

  // A fresh process (new store instance) must come from disk, bit-exactly.
  store::KleArtifactStore reopened(root);
  const store::FetchResult disk = reopened.get_or_compute(config, kernel);
  EXPECT_EQ(disk.source, store::FetchSource::kDisk);
  EXPECT_EQ(store::encode_kle(config, *disk.artifact),
            store::encode_kle(config, *cold.artifact));

  // Dropping the memory cache forces the disk path again.
  store.drop_memory_cache();
  EXPECT_EQ(store.get_or_compute(config, kernel).source,
            store::FetchSource::kDisk);
}

TEST(ArtifactStoreTest, CacheChargeCoversWhatTheResultHolds) {
  // The LRU charge must cover the mesh, the spectrum and at least the
  // locator's own copy of every triangle.
  const fs::path root = scratch_dir("store_charge");
  const kernels::GaussianKernel kernel(2.0);
  store::KleArtifactStore store(root);
  const store::FetchResult fetch = store.get_or_compute(small_config(), kernel);
  const core::KleResult& kle = *fetch.artifact;
  const std::size_t n = kle.basis_size();
  const std::size_t mesh_bytes =
      kle.mesh().num_vertices() * sizeof(geometry::Point2) +
      n * (sizeof(mesh::TriMesh::TriangleIndices) + sizeof(double) +
           sizeof(geometry::Point2));
  const std::size_t spectrum_bytes =
      (kle.num_eigenpairs() + n * kle.num_eigenpairs()) * sizeof(double);
  const std::size_t floor =
      mesh_bytes + spectrum_bytes + n * sizeof(geometry::Triangle);
  EXPECT_EQ(store.cache_stats().bytes, kle.resident_bytes());
  EXPECT_GE(kle.resident_bytes(), floor);
}

TEST(ArtifactStoreTest, CorruptedFileIsResolvedAndRewritten) {
  const fs::path root = scratch_dir("store_corrupt");
  const kernels::GaussianKernel kernel(2.0);
  const store::KleArtifactConfig config = small_config();

  store::KleArtifactStore store(root);
  store.get_or_compute(config, kernel);
  const fs::path path = store.path_for(config);

  // Flip a byte in the middle of the file.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(200);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(200);
    byte = static_cast<char>(byte ^ 0x10);
    f.write(&byte, 1);
  }
  EXPECT_THROW(store::read_kle_file(path.string()), Error);
  EXPECT_FALSE(store.contains(config));

  store::KleArtifactStore reopened(root);
  const store::FetchResult fetch = reopened.get_or_compute(config, kernel);
  EXPECT_EQ(fetch.source, store::FetchSource::kSolved);  // not served corrupt
  EXPECT_TRUE(reopened.contains(config));                // rewritten clean
}

TEST(ArtifactStoreTest, LsAndGcCleanBadFiles) {
  const fs::path root = scratch_dir("store_gc");
  const kernels::GaussianKernel kernel(2.0);
  store::KleArtifactStore store(root);
  store.get_or_compute(small_config(), kernel);
  ASSERT_EQ(store.ls().size(), 1u);

  // Plant an orphaned tmp file, a truncated artifact, and a renamed one.
  // Together with the stale <key>.lock the cold solve left behind, that is
  // four pieces of debris.
  std::ofstream(root / "deadbeef00000000.sckl.tmp3") << "partial";
  std::ofstream(root / "0123456789abcdef.sckl") << "SCKLgarbage";
  fs::copy_file(root / (store.ls()[0].key + ".sckl"),
                root / "aaaaaaaaaaaaaaaa.sckl");

  store::FsckOptions gc;
  gc.purge_quarantine = true;
  EXPECT_EQ(store::fsck(root, gc).stats.repaired, 4u);
  EXPECT_FALSE(fs::exists(store.lock_path_for(small_config())));
  EXPECT_EQ(store.ls().size(), 1u);
  EXPECT_TRUE(store.contains(small_config()));
}

TEST(ArtifactStoreTest, GcDryRunPlansWithoutDeleting) {
  const fs::path root = scratch_dir("store_gc_dry");
  const kernels::GaussianKernel kernel(2.0);
  store::KleArtifactStore store(root);
  store.get_or_compute(small_config(), kernel);

  std::ofstream(root / "deadbeef00000000.sckl.424242.0.tmp") << "partial";
  std::ofstream(root / "cafecafecafecafe.sckl.bad") << "evidence";

  const std::vector<fs::path> debris = {
      root / "deadbeef00000000.sckl.424242.0.tmp",
      root / "cafecafecafecafe.sckl.bad", store.lock_path_for(small_config())};

  // The dry run is the purge pass with repair off: its findings are the
  // plan — the tmp file, the quarantine evidence, and the stale solve lock;
  // the healthy artifact is never on it.
  store::FsckOptions dry;
  dry.repair = false;
  dry.purge_quarantine = true;
  const store::FsckResult plan = store::fsck(root, dry);
  EXPECT_EQ(plan.stats.repaired, 0u);
  EXPECT_EQ(plan.report.metric_value("planned"), 3.0);
  const std::string listing = plan.report.to_string();
  for (const fs::path& path : debris) {
    EXPECT_TRUE(fs::exists(path)) << path << " was deleted";
    EXPECT_NE(listing.find(path.filename().string() + ": "), std::string::npos)
        << path << " is not in the plan:\n" << listing;
  }
  EXPECT_EQ(listing.find(store.path_for(small_config()).filename().string()),
            std::string::npos)
      << listing;

  // The real sweep then removes exactly the planned set.
  store::FsckOptions gc;
  gc.purge_quarantine = true;
  EXPECT_EQ(store::fsck(root, gc).stats.repaired, debris.size());
  for (const fs::path& path : debris) EXPECT_FALSE(fs::exists(path)) << path;
  EXPECT_TRUE(store.contains(small_config()));
}

TEST(ArtifactStoreTest, DifferentConfigsGetDifferentFiles) {
  const fs::path root = scratch_dir("store_two");
  const kernels::GaussianKernel k2(2.0);
  const kernels::GaussianKernel k3(3.0);
  store::KleArtifactConfig a = small_config();
  store::KleArtifactConfig b = small_config();
  b.kernel_params = {3.0};

  store::KleArtifactStore store(root);
  store.get_or_compute(a, k2);
  store.get_or_compute(b, k3);
  EXPECT_EQ(store.ls().size(), 2u);
  EXPECT_NE(store.path_for(a), store.path_for(b));

  // Each artifact reloads under its own key with its own kernel parameters.
  store::KleArtifactStore reopened(root);
  const auto got_b = reopened.get_or_compute(b, k3);
  EXPECT_EQ(got_b.source, store::FetchSource::kDisk);
  EXPECT_EQ(store::read_kle_file(reopened.path_for(b).string())
                .config.kernel_params,
            std::vector<double>{3.0});
}

// --- FileLock --------------------------------------------------------------
// flock attaches the lock to the open file description, so two acquisitions
// in one process conflict exactly like two processes would — these tests
// exercise the real cross-process semantics without forking.

TEST(FileLockTest, ExclusiveExcludesEveryOtherAcquisition) {
  const fs::path path = scratch_dir("lock_excl") / "a.lock";
  const store::FileLock held =
      store::FileLock::acquire(path, store::FileLock::Mode::kExclusive);
  EXPECT_TRUE(held.held());
  EXPECT_EQ(held.path(), path);
  EXPECT_FALSE(
      store::FileLock::try_acquire(path, store::FileLock::Mode::kExclusive)
          .has_value());
  EXPECT_FALSE(
      store::FileLock::try_acquire(path, store::FileLock::Mode::kShared)
          .has_value());
}

TEST(FileLockTest, SharedHoldersCoexistButBlockExclusive) {
  const fs::path path = scratch_dir("lock_shared") / "a.lock";
  const store::FileLock reader1 =
      store::FileLock::acquire(path, store::FileLock::Mode::kShared);
  auto reader2 =
      store::FileLock::try_acquire(path, store::FileLock::Mode::kShared);
  ASSERT_TRUE(reader2.has_value());
  EXPECT_TRUE(reader2->held());
  EXPECT_FALSE(
      store::FileLock::try_acquire(path, store::FileLock::Mode::kExclusive)
          .has_value());
}

TEST(FileLockTest, ReleaseReopensTheDoorAndIsIdempotent) {
  const fs::path path = scratch_dir("lock_release") / "a.lock";
  store::FileLock lock =
      store::FileLock::acquire(path, store::FileLock::Mode::kExclusive);
  lock.release();
  EXPECT_FALSE(lock.held());
  lock.release();  // idempotent
  auto next =
      store::FileLock::try_acquire(path, store::FileLock::Mode::kExclusive);
  EXPECT_TRUE(next.has_value());
}

TEST(FileLockTest, MoveTransfersOwnership) {
  const fs::path path = scratch_dir("lock_move") / "a.lock";
  store::FileLock first =
      store::FileLock::acquire(path, store::FileLock::Mode::kExclusive);
  store::FileLock second = std::move(first);
  EXPECT_FALSE(first.held());
  EXPECT_TRUE(second.held());
  EXPECT_FALSE(
      store::FileLock::try_acquire(path, store::FileLock::Mode::kExclusive)
          .has_value());
  second.release();
  EXPECT_TRUE(
      store::FileLock::try_acquire(path, store::FileLock::Mode::kExclusive)
          .has_value());
}

TEST(FileLockTest, LockIsHeldProbesLiveness) {
  const fs::path dir = scratch_dir("lock_probe");
  EXPECT_FALSE(store::lock_is_held(dir / "missing.lock"));
  {
    const store::FileLock lock = store::FileLock::acquire(
        dir / "live.lock", store::FileLock::Mode::kExclusive);
    EXPECT_TRUE(store::lock_is_held(dir / "live.lock"));
  }
  // Holder gone: the leftover file is stale, not stuck.
  EXPECT_FALSE(store::lock_is_held(dir / "live.lock"));
}

// --- recovery / fsck -------------------------------------------------------

TEST(RecoveryTest, FileTaxonomyClassifiesEveryRepositoryName) {
  EXPECT_TRUE(store::is_artifact_file("0123456789abcdef.sckl"));
  EXPECT_FALSE(store::is_artifact_file("0123456789abcdef.sckl.bad"));
  EXPECT_FALSE(store::is_artifact_file("store.lock"));

  EXPECT_TRUE(store::is_quarantine_file("0123456789abcdef.sckl.bad"));
  EXPECT_FALSE(store::is_quarantine_file("0123456789abcdef.sckl"));

  // Both the current <key>.sckl.<pid>.<seq>.tmp scheme and historical
  // <key>.sckl.tmpN names count as in-flight leftovers.
  EXPECT_TRUE(store::is_tmp_file("0123456789abcdef.sckl.12345.7.tmp"));
  EXPECT_TRUE(store::is_tmp_file("0123456789abcdef.sckl.tmp3"));
  EXPECT_FALSE(store::is_tmp_file("0123456789abcdef.sckl"));
  EXPECT_FALSE(store::is_tmp_file("0123456789abcdef.sckl.bad"));

  EXPECT_TRUE(store::is_lock_file("store.lock"));
  EXPECT_TRUE(store::is_lock_file("0123456789abcdef.lock"));
  EXPECT_FALSE(store::is_lock_file("0123456789abcdef.sckl"));
}

TEST(RecoveryTest, ReportOnlyFsckCountsButTouchesNothing) {
  const fs::path root = scratch_dir("fsck_report");
  const kernels::GaussianKernel kernel(2.0);
  store::KleArtifactStore store(root);
  store.get_or_compute(small_config(), kernel);

  std::ofstream(root / "deadbeef00000000.sckl.999.0.tmp") << "partial";
  std::ofstream(root / "0123456789abcdef.sckl") << "SCKLgarbage";
  std::ofstream(root / "cafecafecafecafe.sckl.bad") << "evidence";
  // The cold solve also left a stale <key>.lock behind.

  store::FsckOptions audit;
  audit.repair = false;
  const store::FsckResult result = store::fsck(root, audit);
  EXPECT_EQ(result.stats.healthy, 1u);
  EXPECT_EQ(result.stats.orphaned_tmp, 1u);
  EXPECT_EQ(result.stats.corrupt, 1u);
  EXPECT_EQ(result.stats.quarantined, 1u);
  EXPECT_EQ(result.stats.stale_locks, 1u);
  EXPECT_EQ(result.stats.repaired, 0u);
  EXPECT_FALSE(result.stats.clean());

  // Report-only means exactly that: every planted file is still there.
  EXPECT_TRUE(fs::exists(root / "deadbeef00000000.sckl.999.0.tmp"));
  EXPECT_TRUE(fs::exists(root / "0123456789abcdef.sckl"));
  EXPECT_TRUE(fs::exists(root / "cafecafecafecafe.sckl.bad"));

  // The findings word what a repairing pass would do; the tmp file is old
  // enough for the default max age, so it would be reaped, not kept.
  const std::string listing = result.report.to_string();
  EXPECT_NE(listing.find("deadbeef00000000.sckl.999.0.tmp: interrupted "
                         "publication, would be reaped"),
            std::string::npos)
      << listing;
  EXPECT_EQ(listing.find("kept"), std::string::npos) << listing;
  EXPECT_NE(listing.find("0123456789abcdef.sckl: corrupt_artifact, would be "
                         "quarantined"),
            std::string::npos)
      << listing;
  EXPECT_EQ(result.report.metric_value("planned"), 3.0);  // tmp, lock, corrupt
}

TEST(RecoveryTest, RepairReapsDebrisAndQuarantinesBrokenArtifacts) {
  const fs::path root = scratch_dir("fsck_repair");
  const kernels::GaussianKernel kernel(2.0);
  store::KleArtifactStore store(root);
  store.get_or_compute(small_config(), kernel);
  const fs::path healthy = store.path_for(small_config());

  std::ofstream(root / "deadbeef00000000.sckl.999.0.tmp") << "partial";
  std::ofstream(root / "0123456789abcdef.sckl") << "SCKLgarbage";
  fs::copy_file(healthy, root / "aaaaaaaaaaaaaaaa.sckl");  // key mismatch

  const store::FsckResult result = store::fsck(root);
  EXPECT_EQ(result.stats.healthy, 1u);
  EXPECT_EQ(result.stats.orphaned_tmp, 1u);
  EXPECT_EQ(result.stats.corrupt, 1u);
  EXPECT_EQ(result.stats.mismatched, 1u);
  EXPECT_GE(result.stats.repaired, 4u);  // tmp + lock + 2 quarantines

  // Repair is conservative: broken artifacts become .bad evidence instead of
  // disappearing, and the healthy artifact is untouched.
  EXPECT_FALSE(fs::exists(root / "deadbeef00000000.sckl.999.0.tmp"));
  EXPECT_FALSE(fs::exists(root / "0123456789abcdef.sckl"));
  EXPECT_TRUE(fs::exists(root / "0123456789abcdef.sckl.bad"));
  EXPECT_TRUE(fs::exists(root / "aaaaaaaaaaaaaaaa.sckl.bad"));
  EXPECT_TRUE(fs::exists(healthy));

  // Second pass: only the quarantine evidence remains; purging it yields a
  // provably clean repository.
  store::FsckOptions purge;
  purge.purge_quarantine = true;
  store::fsck(root, purge);
  store::FsckOptions audit;
  audit.repair = false;
  const store::FsckResult after = store::fsck(root, audit);
  EXPECT_TRUE(after.stats.clean());
  EXPECT_EQ(after.stats.healthy, 1u);
}

TEST(RecoveryTest, PurgeDeletesBrokenArtifactsWithoutEvidence) {
  const fs::path root = scratch_dir("fsck_purge");
  const kernels::GaussianKernel kernel(2.0);
  store::KleArtifactStore store(root);
  store.get_or_compute(small_config(), kernel);
  const fs::path healthy = store.path_for(small_config());

  std::ofstream(root / "0123456789abcdef.sckl") << "SCKLgarbage";
  fs::copy_file(healthy, root / "aaaaaaaaaaaaaaaa.sckl");  // key mismatch

  store::FsckOptions purge;
  purge.purge_quarantine = true;
  const store::FsckResult result = store::fsck(root, purge);
  EXPECT_EQ(result.stats.corrupt, 1u);
  EXPECT_EQ(result.stats.mismatched, 1u);
  EXPECT_EQ(result.stats.repaired, 3u);  // 2 deletions + the stale lock

  // Keeping no evidence: the broken artifacts are gone, not renamed.
  EXPECT_FALSE(fs::exists(root / "0123456789abcdef.sckl"));
  EXPECT_FALSE(fs::exists(root / "aaaaaaaaaaaaaaaa.sckl"));
  for (const auto& entry : fs::directory_iterator(root))
    EXPECT_FALSE(store::is_quarantine_file(entry.path())) << entry.path();
  EXPECT_TRUE(fs::exists(healthy));
}

TEST(RecoveryTest, TransientReadIsRetriedBeforeJudging) {
  const fs::path root = scratch_dir("fsck_retry");
  const kernels::GaussianKernel kernel(2.0);
  store::KleArtifactStore store(root);
  store.get_or_compute(small_config(), kernel);

  // One transient read failure: the sweep reads again, so the artifact is
  // judged healthy instead of being reported unreadable.
  robust::ScopedFaultPlan plan("store_read:1");
  store::FsckOptions audit;
  audit.repair = false;
  const store::FsckResult result = store::fsck(root, audit);
  EXPECT_EQ(result.stats.healthy, 1u);
  EXPECT_EQ(result.stats.unreadable, 0u);
}

TEST(RecoveryTest, YoungTmpFilesAreKeptUntilMaxAge) {
  const fs::path root = scratch_dir("fsck_age");
  fs::create_directories(root);
  std::ofstream(root / "deadbeef00000000.sckl.999.0.tmp") << "in flight?";

  store::FsckOptions patient;
  patient.tmp_max_age_seconds = 3600.0;  // anything written this hour is young
  const store::FsckResult kept = store::fsck(root, patient);
  EXPECT_EQ(kept.stats.orphaned_tmp, 1u);
  EXPECT_EQ(kept.stats.repaired, 0u);
  EXPECT_TRUE(fs::exists(root / "deadbeef00000000.sckl.999.0.tmp"));

  const store::FsckResult reaped = store::fsck(root);  // default age 0
  EXPECT_EQ(reaped.stats.repaired, 1u);
  EXPECT_FALSE(fs::exists(root / "deadbeef00000000.sckl.999.0.tmp"));
}

TEST(RecoveryTest, FsckOnOpenRepairsAtConstruction) {
  const fs::path root = scratch_dir("fsck_on_open");
  fs::create_directories(root);
  std::ofstream(root / "deadbeef00000000.sckl.999.0.tmp") << "partial";
  std::ofstream(root / "0123456789abcdef.lock") << "";

  store::StoreOptions options;
  options.fsck_on_open = true;
  store::KleArtifactStore store(root, options);
  EXPECT_FALSE(fs::exists(root / "deadbeef00000000.sckl.999.0.tmp"));
  EXPECT_FALSE(fs::exists(root / "0123456789abcdef.lock"));
}

// --- solve-stampede dedup --------------------------------------------------

TEST(ArtifactStoreTest, ThreadStampedeRunsExactlyOneSolve) {
  const fs::path root = scratch_dir("stampede_threads");
  const kernels::GaussianKernel kernel(2.0);
  const store::KleArtifactConfig config = small_config();
  store::KleArtifactStore store(root);

  constexpr int kThreads = 6;
  std::atomic<int> ready{0};
  std::atomic<int> solved{0};
  std::vector<store::FetchSource> sources(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Barrier: every thread hits the cold key as simultaneously as the
      // scheduler allows.
      ++ready;
      while (ready.load() < kThreads) std::this_thread::yield();
      const store::FetchResult fetch = store.get_or_compute(config, kernel);
      sources[t] = fetch.source;
      if (fetch.source == store::FetchSource::kSolved) ++solved;
      EXPECT_NE(fetch.artifact, nullptr);
    });
  }
  for (auto& w : workers) w.join();

  // The per-key lock reduces the stampede to exactly one eigensolve; every
  // loser re-checks after the winner publishes and is served a cached or
  // on-disk copy.
  EXPECT_EQ(solved.load(), 1);
  int from_cache_or_disk = 0;
  for (int t = 0; t < kThreads; ++t)
    if (sources[t] != store::FetchSource::kSolved) ++from_cache_or_disk;
  EXPECT_EQ(from_cache_or_disk, kThreads - 1);
  const store::StoreHealth health = store.health();
  EXPECT_GE(health.deduped_solves, 1u);
  EXPECT_LE(health.deduped_solves, static_cast<std::size_t>(kThreads - 1));
}

// --- RecordLog (crash-safe append-only log) --------------------------------

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(RecordLogTest, AppendsPersistAcrossReopenInOrder) {
  const fs::path path = scratch_dir("record_log_rt") / "run.ledger";
  {
    store::RecordLog log = store::RecordLog::open(path);
    EXPECT_TRUE(log.records().empty());
    EXPECT_FALSE(log.recovered_torn_tail());
    log.append(bytes_of("first"));
    log.append(bytes_of(""));  // empty payloads are legal records
    log.append(bytes_of("third record, a bit longer"));
  }
  store::RecordLog reopened = store::RecordLog::open(path);
  EXPECT_FALSE(reopened.recovered_torn_tail());
  ASSERT_EQ(reopened.records().size(), 3u);
  EXPECT_EQ(reopened.records()[0], bytes_of("first"));
  EXPECT_EQ(reopened.records()[1], bytes_of(""));
  EXPECT_EQ(reopened.records()[2], bytes_of("third record, a bit longer"));
}

TEST(RecordLogTest, TornTailIsTruncatedAndLogStaysAppendable) {
  const fs::path path = scratch_dir("record_log_torn") / "run.ledger";
  std::uintmax_t committed_size = 0;
  {
    store::RecordLog log = store::RecordLog::open(path);
    log.append(bytes_of("alpha"));
    log.append(bytes_of("beta"));
    committed_size = fs::file_size(path);
    log.append(bytes_of("gamma-will-be-torn"));
  }
  // Simulate a crash mid-append of the last record: keep its header and a
  // few payload bytes, drop the rest (and the CRC).
  fs::resize_file(path, committed_size + 16 + 3);

  {
    store::RecordLog log = store::RecordLog::open(path);
    EXPECT_TRUE(log.recovered_torn_tail());
    ASSERT_EQ(log.records().size(), 2u);
    EXPECT_EQ(log.records()[1], bytes_of("beta"));
    // The torn bytes are gone from disk; the next append lands cleanly.
    EXPECT_EQ(fs::file_size(path), committed_size);
    log.append(bytes_of("gamma-retried"));
  }
  store::RecordLog reopened = store::RecordLog::open(path);
  EXPECT_FALSE(reopened.recovered_torn_tail());
  ASSERT_EQ(reopened.records().size(), 3u);
  EXPECT_EQ(reopened.records()[2], bytes_of("gamma-retried"));
}

TEST(RecordLogTest, CorruptTailPayloadFailsCrcAndIsDropped) {
  const fs::path path = scratch_dir("record_log_crc") / "run.ledger";
  {
    store::RecordLog log = store::RecordLog::open(path);
    log.append(bytes_of("keep-me"));
    log.append(bytes_of("corrupt-me"));
  }
  {
    // Flip one payload byte of the tail record in place.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-6, std::ios::end);  // inside "corrupt-me", before the CRC
    f.put('X');
  }
  store::RecordLog log = store::RecordLog::open(path);
  EXPECT_TRUE(log.recovered_torn_tail());
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0], bytes_of("keep-me"));
}

TEST(RecordLogTest, GarbageHeaderAtTailIsRecovered) {
  const fs::path path = scratch_dir("record_log_magic") / "run.ledger";
  {
    store::RecordLog log = store::RecordLog::open(path);
    log.append(bytes_of("solid"));
  }
  {
    std::ofstream f(path, std::ios::app | std::ios::binary);
    f << "NOTAMAGICHEADER";  // a torn header shorter than the frame
  }
  store::RecordLog log = store::RecordLog::open(path);
  EXPECT_TRUE(log.recovered_torn_tail());
  ASSERT_EQ(log.records().size(), 1u);
  EXPECT_EQ(log.records()[0], bytes_of("solid"));
}

TEST(RecordLogTest, MoveTransfersTheAppendHandle) {
  const fs::path path = scratch_dir("record_log_move") / "run.ledger";
  store::RecordLog first = store::RecordLog::open(path);
  first.append(bytes_of("one"));
  store::RecordLog second = std::move(first);
  second.append(bytes_of("two"));
  store::RecordLog reopened = store::RecordLog::open(path);
  ASSERT_EQ(reopened.records().size(), 2u);
  EXPECT_EQ(reopened.records()[1], bytes_of("two"));
}

}  // namespace
