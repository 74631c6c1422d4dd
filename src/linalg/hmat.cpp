#include "linalg/hmat.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/error.h"
#include "common/thread_pool.h"
#include "linalg/blas.h"
#include "linalg/gemm.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sckl::linalg {
namespace {

// Admissibility parameter eta of the block partition: a larger eta accepts
// closer (coarser) far-field blocks — less memory, higher block ranks.
constexpr double kHmatAdmissibility = 2.0;

// Per-block ACA rank cap (safety valve; counted in stats.rank_cap_hits when
// hit, which signals the tolerance was not reached on that block).
constexpr std::size_t kHmatMaxRank = 96;

double box_diameter(const TileNode& node) {
  return std::hypot(node.max_x - node.min_x, node.max_y - node.min_y);
}

double box_distance(const TileNode& s, const TileNode& t) {
  const double dx =
      std::max({0.0, s.min_x - t.max_x, t.min_x - s.max_x});
  const double dy =
      std::max({0.0, s.min_y - t.max_y, t.min_y - s.max_y});
  return std::hypot(dx, dy);
}

bool admissible(const TileNode& s, const TileNode& t, double eta) {
  const double diam = std::max(box_diameter(s), box_diameter(t));
  return diam <= eta * box_distance(s, t);
}

}  // namespace

void EntrySource::row_slice(std::size_t i, const std::size_t* cols,
                            std::size_t count, double* out) const {
  for (std::size_t c = 0; c < count; ++c) out[c] = entry(i, cols[c]);
}

TileTree::TileTree(const std::vector<double>& xs,
                   const std::vector<double>& ys, std::size_t leaf_size) {
  require(xs.size() == ys.size(), "TileTree: coordinate arrays disagree");
  require(!xs.empty(), "TileTree: need at least one point");
  require(leaf_size >= 1, "TileTree: leaf size must be positive");
  perm_.resize(xs.size());
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});
  // Two children per split, so at most 2 * ceil(n / leaf) - 1 nodes.
  nodes_.reserve(2 * (xs.size() / leaf_size + 1));
  build(xs, ys, 0, xs.size(), leaf_size, 1);
}

std::size_t TileTree::build(const std::vector<double>& xs,
                            const std::vector<double>& ys, std::size_t begin,
                            std::size_t end, std::size_t leaf_size,
                            std::size_t level) {
  const std::size_t id = nodes_.size();
  nodes_.push_back(TileNode{});
  TileNode node;
  node.begin = begin;
  node.end = end;
  node.min_x = node.min_y = std::numeric_limits<double>::infinity();
  node.max_x = node.max_y = -std::numeric_limits<double>::infinity();
  for (std::size_t p = begin; p < end; ++p) {
    const std::size_t i = perm_[p];
    node.min_x = std::min(node.min_x, xs[i]);
    node.max_x = std::max(node.max_x, xs[i]);
    node.min_y = std::min(node.min_y, ys[i]);
    node.max_y = std::max(node.max_y, ys[i]);
  }
  depth_ = std::max(depth_, level);

  if (end - begin <= leaf_size) {
    ++num_leaves_;
    nodes_[id] = node;
    return id;
  }

  // Median split along the longer box axis; ties in the sort key are broken
  // by original index so the permutation (and with it every downstream
  // factor) is a pure function of the input points.
  const bool split_x = (node.max_x - node.min_x) >= (node.max_y - node.min_y);
  const std::vector<double>& coord = split_x ? xs : ys;
  const std::size_t mid = begin + (end - begin) / 2;
  std::nth_element(perm_.begin() + begin, perm_.begin() + mid,
                   perm_.begin() + end,
                   [&coord](std::size_t a, std::size_t b) {
                     if (coord[a] != coord[b]) return coord[a] < coord[b];
                     return a < b;
                   });
  node.left = static_cast<int>(
      build(xs, ys, begin, mid, leaf_size, level + 1));
  node.right = static_cast<int>(build(xs, ys, mid, end, leaf_size, level + 1));
  nodes_[id] = node;
  return id;
}

AcaResult aca_compress(const EntrySource& source, const std::size_t* rows,
                       std::size_t num_rows, const std::size_t* cols,
                       std::size_t num_cols, double tolerance,
                       std::size_t max_rank) {
  require(num_rows > 0 && num_cols > 0, "aca_compress: empty block");
  require(tolerance > 0.0, "aca_compress: tolerance must be positive");
  const std::size_t rank_limit =
      std::min({max_rank, num_rows, num_cols});

  std::vector<Vector> us, vs;  // residual crosses accumulated so far
  std::vector<char> row_used(num_rows, 0);
  Vector row(num_cols), col(num_rows);
  std::size_t next_row = 0;
  double frob2 = 0.0;  // running ||U V^T||_F^2 estimate
  bool converged = false;

  // Residual row i of the current approximation, written into `out`;
  // returns its squared norm.
  const auto residual_row = [&](std::size_t i, double* out) {
    source.row_slice(rows[i], cols, num_cols, out);
    for (std::size_t l = 0; l < us.size(); ++l) {
      const double w = us[l][i];
      if (w != 0.0)
        for (std::size_t j = 0; j < num_cols; ++j) out[j] -= w * vs[l][j];
    }
    double norm2 = 0.0;
    for (std::size_t j = 0; j < num_cols; ++j) norm2 += out[j] * out[j];
    return norm2;
  };

  // Stagnation guard. Partial pivoting only ever sees the rows its own walk
  // visits; on kernels whose entries decay fast across a block (Gaussian
  // far field) the walk can die inside a low-magnitude region and the
  // last-cross test fires while unexplored rows still carry most of the
  // residual. Before accepting convergence, probe a few evenly spaced
  // unused rows (deterministic, so the build stays a pure function of its
  // inputs); if any true residual row exceeds the tolerance, resume the
  // factorization from the worst offender instead of stopping.
  Vector probe(num_cols);
  const auto find_stagnant_row = [&]() {
    constexpr std::size_t kVerifyProbes = 4;
    std::vector<std::size_t> unused;
    unused.reserve(num_rows);
    for (std::size_t i = 0; i < num_rows; ++i)
      if (!row_used[i]) unused.push_back(i);
    if (unused.empty()) return num_rows;  // sentinel: nothing left to probe
    const std::size_t stride =
        std::max<std::size_t>(unused.size() / kVerifyProbes, 1);
    std::size_t worst_row = num_rows;
    double worst_norm2 = tolerance * tolerance * frob2;
    for (std::size_t p = 0; p < unused.size(); p += stride) {
      const std::size_t i = unused[p];
      const double norm2 = residual_row(i, probe.data());
      if (norm2 > worst_norm2) {
        worst_norm2 = norm2;
        worst_row = i;
      }
    }
    return worst_row;  // num_rows when every probe is below tolerance
  };

  while (us.size() < rank_limit) {
    // Residual row at the current pivot row.
    residual_row(next_row, row.data());
    std::size_t pivot_col = 0;
    for (std::size_t j = 1; j < num_cols; ++j)
      if (std::abs(row[j]) > std::abs(row[pivot_col])) pivot_col = j;
    const double pivot = row[pivot_col];
    if (std::abs(pivot) < 1e-300) {
      // Residual row numerically zero: this row (and, for smooth kernels,
      // usually the whole remaining block) is exhausted — but verify before
      // believing it, and resume elsewhere if the block is not done.
      row_used[next_row] = 1;
      const std::size_t resume = find_stagnant_row();
      if (resume == num_rows) {
        converged = true;
        break;
      }
      obs::counter("sckl.linalg.hmat.aca_restarts").add(1);
      next_row = resume;
      continue;
    }

    Vector v = row;
    scale(1.0 / pivot, v);
    // Residual column at the pivot column. The source is symmetric, so the
    // column slice is a row slice of the transposed index.
    source.row_slice(cols[pivot_col], rows, num_rows, col.data());
    for (std::size_t l = 0; l < us.size(); ++l) {
      const double w = vs[l][pivot_col];
      if (w != 0.0) axpy(-w, us[l], col);
    }
    Vector u = std::move(col);
    col.resize(num_rows);
    row_used[next_row] = 1;

    const double uu = dot(u, u);
    const double vv = dot(v, v);
    // Stopping rule: a cross whose norm is already below tolerance relative
    // to the running ||U V^T||_F estimate is dropped, not stored — an exact
    // rank-k block therefore yields rank exactly k instead of k + 1. The
    // small cross only proves this *row neighbourhood* is exhausted, so the
    // stagnation guard re-checks a sample of untouched rows first.
    if (!us.empty() && std::sqrt(uu * vv) <= tolerance * std::sqrt(frob2)) {
      const std::size_t resume = find_stagnant_row();
      if (resume == num_rows) {
        converged = true;
        break;
      }
      obs::counter("sckl.linalg.hmat.aca_restarts").add(1);
      next_row = resume;
      continue;
    }

    // ||S_k||_F^2 = ||S_{k-1}||_F^2 + 2 sum_l (u_k.u_l)(v_l.v_k) + |u|^2|v|^2.
    double cross = 0.0;
    for (std::size_t l = 0; l < us.size(); ++l)
      cross += dot(u, us[l]) * dot(vs[l], v);
    frob2 = std::max(0.0, frob2 + 2.0 * cross + uu * vv);
    us.push_back(std::move(u));
    vs.push_back(std::move(v));

    // Next pivot row: largest |u| entry among unused rows.
    const Vector& last_u = us.back();
    bool found = false;
    double best = -1.0;
    for (std::size_t i = 0; i < num_rows; ++i) {
      if (row_used[i]) continue;
      const double mag = std::abs(last_u[i]);
      if (mag > best) {
        best = mag;
        next_row = i;
        found = true;
      }
    }
    if (!found) {
      // Every row served as a pivot: the factorization is exact.
      converged = true;
      break;
    }
  }

  AcaResult result;
  result.rank = us.size();
  result.converged = converged;
  result.u = Matrix(num_rows, result.rank);
  result.v = Matrix(num_cols, result.rank);
  for (std::size_t l = 0; l < result.rank; ++l) {
    for (std::size_t i = 0; i < num_rows; ++i) result.u(i, l) = us[l][i];
    for (std::size_t j = 0; j < num_cols; ++j) result.v(j, l) = vs[l][j];
  }
  return result;
}

HMatrix::HMatrix(const EntrySource& source, const std::vector<double>& xs,
                 const std::vector<double>& ys, const HmatOptions& options)
    : tree_(xs, ys, std::max<std::size_t>(options.leaf_size, 1)) {
  require(source.dim() == xs.size(),
          "HMatrix: source dimension must match the point count");
  require(options.aca_tolerance > 0.0,
          "HMatrix: ACA tolerance must be positive");
  obs::Span span("linalg.hmat.build");

  inv_perm_.resize(tree_.num_points());
  for (std::size_t p = 0; p < tree_.num_points(); ++p)
    inv_perm_[tree_.perm()[p]] = p;

  // Pass 1 (serial, geometry only): enumerate the block partition of the
  // upper triangle. Pass 2 (parallel): fill each block independently — the
  // factors are a pure function of (source, block), so the build is
  // deterministic for any worker count.
  enumerate_blocks(0, 0, kHmatAdmissibility, options.leaf_size);

  const std::size_t threads = std::min<std::size_t>(
      ThreadPool::resolve_num_threads(options.num_threads), blocks_.size());
  apply_threads_ = std::max<std::size_t>(threads, 1);
  std::atomic<std::size_t> next_block{0};
  std::atomic<std::size_t> bytes{0};
  std::atomic<bool> over_budget{false};
  const auto fill_job = [&](std::size_t) {
    for (;;) {
      const std::size_t b = next_block.fetch_add(1);
      if (b >= blocks_.size() || over_budget.load()) return;
      std::size_t block_bytes = 0;
      fill_block(source, blocks_[b], options, &block_bytes);
      const std::size_t total = bytes.fetch_add(block_bytes) + block_bytes;
      if (options.max_bytes != 0 && total > options.max_bytes) {
        over_budget.store(true);
        throw Error("HMatrix: compressed storage (" + std::to_string(total) +
                        " bytes) exceeded the max_bytes budget (" +
                        std::to_string(options.max_bytes) + ") at n = " +
                        std::to_string(dim()),
                    ErrorCode::kOverloaded);
      }
    }
  };
  if (threads > 1) {
    ThreadPool pool(threads);
    pool.run(fill_job);
  } else {
    fill_job(0);
  }

  // Stats scan (serial, cheap): every number is derived from the filled
  // blocks, so it is identical for any build thread count.
  stats_.dim = dim();
  stats_.leaves = tree_.num_leaves();
  stats_.tree_depth = tree_.depth();
  std::size_t rank_sum = 0;
  for (const Block& block : blocks_) {
    if (block.lowrank) {
      ++stats_.lowrank_blocks;
      const std::size_t r = block.u.cols();
      stats_.max_rank = std::max(stats_.max_rank, r);
      rank_sum += r;
      stats_.compressed_bytes +=
          sizeof(double) * r * (block.u.rows() + block.v.rows());
      if (!block.aca_converged) ++stats_.rank_cap_hits;
    } else {
      ++stats_.dense_blocks;
      stats_.compressed_bytes +=
          sizeof(double) * block.dense.rows() * block.dense.cols();
    }
  }
  if (stats_.lowrank_blocks > 0)
    stats_.mean_rank =
        static_cast<double>(rank_sum) / static_cast<double>(stats_.lowrank_blocks);
  const double dense_bytes = 8.0 * static_cast<double>(dim()) *
                             static_cast<double>(dim());
  stats_.compression = static_cast<double>(stats_.compressed_bytes) /
                       std::max(dense_bytes, 1.0);

  obs::counter("sckl.linalg.hmat.builds").add(1);
  obs::counter("sckl.linalg.hmat.lowrank_blocks").add(stats_.lowrank_blocks);
  obs::counter("sckl.linalg.hmat.dense_blocks").add(stats_.dense_blocks);
  obs::counter("sckl.linalg.hmat.compressed_bytes")
      .add(stats_.compressed_bytes);
  if (stats_.rank_cap_hits > 0)
    obs::counter("sckl.linalg.hmat.rank_cap_hits").add(stats_.rank_cap_hits);
}

void HMatrix::set_apply_threads(std::size_t num_threads) {
  apply_threads_ = std::max<std::size_t>(
      std::min(ThreadPool::resolve_num_threads(num_threads), blocks_.size()),
      1);
}

void HMatrix::enumerate_blocks(int s, int t, double eta,
                               std::size_t leaf_size) {
  const TileNode& ns = tree_.nodes()[s];
  const TileNode& nt = tree_.nodes()[t];
  if (s == t) {
    if (ns.leaf()) {
      Block block;
      block.row_node = s;
      block.col_node = s;
      blocks_.push_back(block);
      return;
    }
    enumerate_blocks(ns.left, ns.left, eta, leaf_size);
    enumerate_blocks(ns.left, ns.right, eta, leaf_size);
    enumerate_blocks(ns.right, ns.right, eta, leaf_size);
    return;
  }
  // Off-diagonal: s's permuted range strictly precedes t's (the recursion
  // only descends that way), so every stored block lies in the upper
  // triangle; apply() mirrors it for the lower one.
  if (admissible(ns, nt, eta)) {
    Block block;
    block.row_node = s;
    block.col_node = t;
    block.lowrank = true;
    blocks_.push_back(block);
    return;
  }
  if (ns.leaf() && nt.leaf()) {
    Block block;
    block.row_node = s;
    block.col_node = t;
    blocks_.push_back(block);
    return;
  }
  // Refine the larger side (a leaf is never split).
  const bool split_s = !ns.leaf() && (nt.leaf() || ns.size() >= nt.size());
  if (split_s) {
    enumerate_blocks(ns.left, t, eta, leaf_size);
    enumerate_blocks(ns.right, t, eta, leaf_size);
  } else {
    enumerate_blocks(s, nt.left, eta, leaf_size);
    enumerate_blocks(s, nt.right, eta, leaf_size);
  }
}

void HMatrix::fill_block(const EntrySource& source, Block& block,
                         const HmatOptions& options,
                         std::size_t* bytes_out) const {
  const TileNode& rn = tree_.nodes()[block.row_node];
  const TileNode& cn = tree_.nodes()[block.col_node];
  const std::size_t m = rn.size();
  const std::size_t n = cn.size();
  std::vector<std::size_t> rows(m), cols(n);
  for (std::size_t i = 0; i < m; ++i) rows[i] = tree_.perm()[rn.begin + i];
  for (std::size_t j = 0; j < n; ++j) cols[j] = tree_.perm()[cn.begin + j];

  if (block.lowrank) {
    AcaResult aca =
        aca_compress(source, rows.data(), m, cols.data(), n,
                     options.aca_tolerance, kHmatMaxRank);
    block.u = std::move(aca.u);
    block.v = std::move(aca.v);
    block.aca_converged = aca.converged;
    *bytes_out = sizeof(double) * aca.rank * (m + n);
    return;
  }
  block.dense = Matrix(m, n);
  for (std::size_t i = 0; i < m; ++i)
    source.row_slice(rows[i], cols.data(), n, block.dense.row_ptr(i));
  *bytes_out = sizeof(double) * m * n;
}

void HMatrix::apply_block(const Block& block, const Vector& xp,
                          Vector& yp) const {
  const TileNode& rn = tree_.nodes()[block.row_node];
  const TileNode& cn = tree_.nodes()[block.col_node];
  const std::size_t m = rn.size();
  const std::size_t n = cn.size();
  Vector xt(xp.begin() + cn.begin, xp.begin() + cn.end);

  if (block.lowrank) {
    if (block.u.cols() == 0) return;  // numerically zero block
    // (s, t): y_s += U (V^T x_t); mirror: y_t += V (U^T x_s).
    const Vector t1 = gemv_transposed_fast(block.v, xt);
    const Vector ys = gemv_fast(block.u, t1);
    for (std::size_t i = 0; i < m; ++i) yp[rn.begin + i] += ys[i];
    const Vector xs(xp.begin() + rn.begin, xp.begin() + rn.end);
    const Vector t2 = gemv_transposed_fast(block.u, xs);
    const Vector yt = gemv_fast(block.v, t2);
    for (std::size_t j = 0; j < n; ++j) yp[cn.begin + j] += yt[j];
    return;
  }

  const Vector ys = gemv_fast(block.dense, xt);
  for (std::size_t i = 0; i < m; ++i) yp[rn.begin + i] += ys[i];
  if (block.row_node != block.col_node) {
    const Vector xs(xp.begin() + rn.begin, xp.begin() + rn.end);
    const Vector yt = gemv_transposed_fast(block.dense, xs);
    for (std::size_t j = 0; j < n; ++j) yp[cn.begin + j] += yt[j];
  }
}

void HMatrix::apply(const Vector& x, Vector& y) const {
  const std::size_t n = dim();
  require(x.size() == n, "HMatrix::apply: dimension mismatch");
  obs::Span span("linalg.hmat.apply");
  {
    static obs::Counter& matvecs = obs::counter("sckl.linalg.hmat.matvecs");
    matvecs.add(1);
  }

  Vector xp(n);
  for (std::size_t p = 0; p < n; ++p) xp[p] = x[tree_.perm()[p]];

  Vector yp(n, 0.0);
  if (apply_threads_ <= 1) {
    for (const Block& block : blocks_) apply_block(block, xp, yp);
  } else {
    // Blocks are statically assigned round-robin and every worker writes a
    // private output, merged in worker order below — the result is a pure
    // function of (operator, x, thread count).
    std::vector<Vector> partial(apply_threads_);
    ThreadPool pool(apply_threads_);
    pool.run([&](std::size_t w) {
      Vector& local = partial[w];
      local.assign(n, 0.0);
      for (std::size_t b = w; b < blocks_.size(); b += apply_threads_)
        apply_block(blocks_[b], xp, local);
    });
    for (const Vector& local : partial) axpy(1.0, local, yp);
  }

  y.resize(n);
  for (std::size_t p = 0; p < n; ++p) y[tree_.perm()[p]] = yp[p];
}

}  // namespace sckl::linalg
