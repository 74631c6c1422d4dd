// Hierarchical low-rank compression of smooth kernel matrices (tile tree +
// adaptive cross approximation), behind the KernelOperator interface.
//
// The correlation kernels of the paper are smooth and isotropic, so the
// interaction between two well-separated groups of triangle centroids is
// numerically low rank. This module exploits that without ever seeing the
// geometry types: it takes plain point coordinates plus an EntrySource
// oracle for matrix entries, partitions the points into a spatial tile tree
// (recursive longest-axis median split), classifies tile pairs by the
// admissibility condition
//
//     max(diam(s), diam(t)) <= eta * dist(s, t)
//
// and compresses every admissible (far-field) block with partial-pivot ACA
// to a relative Frobenius tolerance, keeping inadmissible leaf-pair
// (near-field) blocks as exact dense tiles. Storage drops from O(n^2) to
// O(n log n * k) where k is the tolerance-dependent block rank — the lever
// that takes the KLE solve from the ~10^4-triangle dense ceiling to
// million-triangle dies (DESIGN.md §14).
//
// Symmetry: the source must be symmetric (entry(i,k) == entry(k,i)); only
// upper block pairs are stored, and apply() adds each off-diagonal block's
// transpose contribution, halving memory.
//
// Determinism: the build is a pure function of (source, points, options) —
// identical factors for any build thread count. apply() is bit-reproducible
// for a fixed apply thread count (per-worker partial outputs are merged in
// worker order); across different thread counts it guarantees the accuracy
// bound, not bit equality. The matrix-free KLE path is documented as
// eigenvalue-accurate rather than bit-stable for exactly this reason.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/kernel_operator.h"
#include "linalg/matrix.h"

namespace sckl::linalg {

/// Entry oracle of an implicitly defined symmetric matrix. entry(i, k) must
/// be finite, symmetric, and a pure function of (i, k).
class EntrySource {
 public:
  virtual ~EntrySource() = default;

  /// Matrix dimension n.
  virtual std::size_t dim() const = 0;

  /// Entry A(i, k).
  virtual double entry(std::size_t i, std::size_t k) const = 0;

  /// out[c] = entry(i, cols[c]) for c in [0, count) — the ACA and
  /// dense-tile fill hot path. The default loops entry(); sources with a
  /// cheaper batched form (one sqrt(a_i) load per row, say) override it.
  virtual void row_slice(std::size_t i, const std::size_t* cols,
                         std::size_t count, double* out) const;
};

/// One node of the spatial tile tree. Points are permuted so each node owns
/// the contiguous permuted index range [begin, end).
struct TileNode {
  std::size_t begin = 0;
  std::size_t end = 0;
  double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;
  int left = -1;   // child node index, -1 on leaves
  int right = -1;
  std::size_t size() const { return end - begin; }
  bool leaf() const { return left < 0; }
};

/// Binary spatial partition of 2-D points: recursive longest-axis median
/// split down to `leaf_size` points per tile. Deterministic — ties in the
/// median split are broken by original index.
class TileTree {
 public:
  TileTree(const std::vector<double>& xs, const std::vector<double>& ys,
           std::size_t leaf_size);

  std::size_t num_points() const { return perm_.size(); }
  /// Node 0 is the root; children always follow their parent.
  const std::vector<TileNode>& nodes() const { return nodes_; }
  /// perm()[p] = original index of the point at permuted position p. Every
  /// original index appears exactly once (the partition invariant the tests
  /// assert).
  const std::vector<std::size_t>& perm() const { return perm_; }
  std::size_t depth() const { return depth_; }
  std::size_t num_leaves() const { return num_leaves_; }

 private:
  std::size_t build(const std::vector<double>& xs,
                    const std::vector<double>& ys, std::size_t begin,
                    std::size_t end, std::size_t leaf_size,
                    std::size_t level);

  std::vector<TileNode> nodes_;
  std::vector<std::size_t> perm_;
  std::size_t depth_ = 0;
  std::size_t num_leaves_ = 0;
};

/// Tuning knobs of the hierarchical build. The admissibility parameter
/// eta (2) and the per-block rank cap (96) are fixed in hmat.cpp.
struct HmatOptions {
  /// Tile tree leaf size: near-field dense tiles are at most this square.
  std::size_t leaf_size = 64;
  /// Relative Frobenius-norm tolerance of each ACA-compressed block:
  /// ||A_block - U V^T||_F <~ aca_tolerance * ||A_block||_F. The spectral
  /// perturbation of a KLE eigensolve is of this order, so keep it a couple
  /// of digits tighter than the eigenvalue accuracy you need.
  double aca_tolerance = 1e-8;
  /// Worker threads for the block build and apply: 0 = auto (SCKL_THREADS
  /// env, else hardware concurrency), 1 = serial.
  std::size_t num_threads = 1;
  /// Hard ceiling on compressed storage in bytes; the build throws
  /// sckl::Error (code kOverloaded) when exceeded. 0 = unbounded.
  std::size_t max_bytes = 0;
};

/// What one build produced — the memory-model numbers DESIGN.md §14
/// documents.
struct HmatStats {
  std::size_t dim = 0;
  std::size_t leaves = 0;
  std::size_t tree_depth = 0;
  std::size_t lowrank_blocks = 0;
  std::size_t dense_blocks = 0;
  std::size_t compressed_bytes = 0;  // factor + dense-tile storage
  std::size_t max_rank = 0;          // largest ACA rank over all blocks
  double mean_rank = 0.0;            // mean ACA rank over low-rank blocks
  std::size_t rank_cap_hits = 0;     // blocks stopped by the rank cap, not tol
  /// compressed_bytes / (8 n^2): fraction of the dense footprint.
  double compression = 0.0;
};

/// Result of one ACA block compression: A_block ~= u * v^T with u
/// (rows x rank) and v (cols x rank). converged is false when the rank cap
/// stopped the iteration before the tolerance was met.
struct AcaResult {
  Matrix u;
  Matrix v;
  std::size_t rank = 0;
  bool converged = false;
};

/// Partial-pivot adaptive cross approximation of the block
/// source[rows x cols] to relative Frobenius tolerance. The classic
/// last-cross stopping heuristic is backed by a stagnation guard: before
/// convergence is accepted, a deterministic sample of unused rows is checked
/// against the true residual, and the factorization resumes from the worst
/// offender when any of them still exceeds the tolerance (counter
/// `sckl.linalg.hmat.aca_restarts`). Exposed for the error-bound tests;
/// HMatrix uses it per admissible block.
AcaResult aca_compress(const EntrySource& source, const std::size_t* rows,
                       std::size_t num_rows, const std::size_t* cols,
                       std::size_t num_cols, double tolerance,
                       std::size_t max_rank);

/// Hierarchically compressed symmetric kernel matrix. Build cost is one
/// pass of kernel evaluations over near-field tiles plus O(rank * (m + n))
/// evaluations per far-field block; apply cost and storage are
/// O(n log n * rank).
class HMatrix final : public KernelOperator {
 public:
  /// Compresses `source` over the points (xs, ys) (one point per matrix
  /// index; xs.size() == ys.size() == source.dim()). The source is only
  /// used during construction. Throws sckl::Error (kOverloaded) when
  /// options.max_bytes is exceeded.
  HMatrix(const EntrySource& source, const std::vector<double>& xs,
          const std::vector<double>& ys, const HmatOptions& options = {});

  std::size_t dim() const override { return tree_.num_points(); }
  void apply(const Vector& x, Vector& y) const override;
  const char* name() const override { return "hmat"; }

  const HmatStats& stats() const { return stats_; }
  const TileTree& tree() const { return tree_; }

  /// Overrides the worker count apply() uses (defaults to the build's
  /// resolved num_threads). 0 = auto, 1 = serial. Lets an operator built
  /// wide run its applies serially (or vice versa) — and is what the tests
  /// use to verify builds are thread-count invariant bit for bit.
  void set_apply_threads(std::size_t num_threads);

 private:
  struct Block {
    int row_node = -1;  // owns permuted rows [begin, end)
    int col_node = -1;  // owns permuted cols [begin, end)
    bool lowrank = false;
    bool aca_converged = true;  // false: rank cap stopped short of tolerance
    Matrix u, v;   // lowrank: rows x r and cols x r
    Matrix dense;  // near field: rows x cols, exact entries
  };

  void enumerate_blocks(int s, int t, double eta, std::size_t leaf_size);
  void fill_block(const EntrySource& source, Block& block,
                  const HmatOptions& options, std::size_t* bytes_out) const;
  void apply_block(const Block& block, const Vector& xp, Vector& yp) const;

  TileTree tree_;
  std::vector<Block> blocks_;
  std::vector<std::size_t> inv_perm_;  // original index -> permuted position
  HmatStats stats_;
  std::size_t apply_threads_ = 1;
};

}  // namespace sckl::linalg
