#include "gpubb/dfs_pool.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "gpubb/lb_kernel.h"

namespace fsbb::gpubb {
namespace {

constexpr std::size_t kDefaultLanes = 256;
/// Per-lane recall granularity: quota = lanes x this (the historical 8192
/// at the old single-block default of 256 lanes).
constexpr std::uint64_t kDefaultExpansionsPerLane = 32;
/// Lane-state arena may take at most this fraction of what is left of the
/// simulated device memory (same policy as the resident pool's shards).
constexpr std::size_t kMemoryDivisor = 4;

/// Insert-time-pruned child in the clb rows: the descend scan skips these
/// without counting (the prune was counted when the bound was computed),
/// exactly like a serial engine that never inserted the child at all.
constexpr fsp::Time kDeadChild = std::numeric_limits<fsp::Time>::max();

/// One pre-gathered Johnson-row entry: everything the bounding sweep needs
/// about free job `job` on one machine couple, packed so the inner loop is
/// one local load + a handful of ops per entry — no global table gathers.
struct PackedEntry {
  std::uint8_t job = 0;
  std::uint8_t p1 = 0;    ///< ptm(job, k)
  std::uint8_t p2 = 0;    ///< ptm(job, l)
  std::uint16_t lag = 0;  ///< lm(job, s)
};

/// Per-couple constants cached thread-local at lane start, so the
/// per-child sweep touches no table at all outside the packed rows.
struct CoupleCache {
  fsp::Time rm_k = 0;
  fsp::Time rm_l = 0;
  fsp::Time qm_l = 0;
  std::uint8_t k = 0;
  std::uint8_t l = 0;
};

}  // namespace

gpusim::KernelResources dfs_kernel_resources(const DeviceLbData& data,
                                             int block_threads) {
  gpusim::KernelResources r;
  r.block_threads = block_threads;
  r.registers_per_thread = 40;
  r.shared_bytes_per_block = data.plan().shared_bytes_per_block;
  return r;
}

DeviceDfsPool::DeviceDfsPool(gpusim::SimDevice& device,
                             const DeviceLbData& data, DfsPoolConfig config)
    : device_(&device), data_(&data) {
  const auto n = static_cast<std::size_t>(data.jobs());
  const auto m = static_cast<std::size_t>(data.machines());
  const auto pairs = static_cast<std::size_t>(data.pairs());
  FSBB_CHECK_MSG(data.jobs() <= kKernelMaxJobs &&
                     data.machines() <= kKernelMaxMachines,
                 "instance exceeds the DFS kernel's per-thread scratch caps");

  // Worst case (a depth-0 root) of one lane's full-depth DFS state: the
  // working permutation, per-level machine fronts, the packed couple rows
  // (level d keeps n-d entries per couple), per-level child bounds, the
  // cursor/active records and the couple cache.
  const std::size_t tri = n * (n + 1) / 2;
  lane_state_bytes_ = n                                   // perm
                      + n * m * sizeof(fsp::Time)         // fronts
                      + pairs * tri * sizeof(PackedEntry) // packed rows
                      + tri * sizeof(fsp::Time)           // child bounds
                      + 2 * n * sizeof(std::int32_t)      // cursor + active
                      + pairs * sizeof(CoupleCache);      // couple cache

  block_threads_ = config.block_threads != 0
                       ? std::min(config.block_threads,
                                  device.spec().max_threads_per_block)
                       : std::min(static_cast<int>(kDefaultLanes),
                                  device.spec().max_threads_per_block);
  lanes_ = config.max_lanes != 0 ? config.max_lanes : kDefaultLanes;
  const std::size_t remaining =
      device.spec().global_mem_bytes - device.allocated_bytes();
  const std::size_t budget_lanes =
      (remaining / kMemoryDivisor) / lane_state_bytes_;
  lanes_ = std::min(lanes_, budget_lanes);
  FSBB_CHECK_MSG(lanes_ >= 1,
                 "simulated device memory too small for one DFS lane");

  launch_expansions_ =
      config.launch_expansions != 0
          ? config.launch_expansions
          : static_cast<std::uint64_t>(lanes_) * kDefaultExpansionsPerLane;

  lane_state_ = device.reserve(lanes_ * lane_state_bytes_);
  root_perms_ =
      device.alloc<std::uint8_t>(lanes_ * n, gpusim::MemSpace::kGlobal);
  root_depths_ =
      device.alloc<std::uint16_t>(lanes_, gpusim::MemSpace::kGlobal);
  root_lbs_ = device.alloc<std::int32_t>(lanes_, gpusim::MemSpace::kGlobal);
}

void DeviceDfsPool::run_subtrees(fsp::Time ub,
                                 std::span<const core::DfsRoot> roots,
                                 std::uint64_t max_expansions,
                                 core::DfsLaunchResult& out, DfsLaunchIo& io) {
  const int n = data_->jobs();
  const int m = data_->machines();
  const int n_pairs = data_->pairs();
  FSBB_CHECK(!roots.empty());
  FSBB_CHECK(roots.size() <= lanes_);
  FSBB_CHECK(max_expansions >= 1);

  // --- stage the root descriptors ----------------------------------------
  auto perms_host = root_perms_.host_span();
  auto depths_host = root_depths_.host_span();
  auto lbs_host = root_lbs_.host_span();
  for (std::size_t i = 0; i < roots.size(); ++i) {
    const core::DfsRoot& root = roots[i];
    FSBB_CHECK(static_cast<int>(root.perm.size()) == n);
    FSBB_CHECK(root.depth >= 0 && root.depth < n);
    for (int j = 0; j < n; ++j) {
      perms_host[i * static_cast<std::size_t>(n) + static_cast<std::size_t>(j)] =
          static_cast<std::uint8_t>(root.perm[static_cast<std::size_t>(j)]);
    }
    depths_host[i] = static_cast<std::uint16_t>(root.depth);
    lbs_host[i] = root.lb;
  }
  // Roots down (u8 perm + u16 depth + i32 lb each), plus incumbent + quota.
  io.h2d_bytes = roots.size() * (static_cast<std::size_t>(n) + 2 + 4) + 4 + 8;

  // --- shared launch state ------------------------------------------------
  // The grid's blocks are driven one at a time below and the simulator
  // executes a block's lanes strictly sequentially (gpusim/kernel.cpp), so
  // plain host captures model the device-shared incumbent/quota words and
  // replicate the serial exploration order across the whole grid.
  fsp::Time best = ub;
  core::EngineStats st;
  std::vector<core::DfsIncumbentEvent> events;
  std::vector<core::Subproblem> surfaced;
  std::size_t started = 0;
  bool quota_hit = false;
  const std::uint64_t quota = max_expansions;

  const auto v_perms = root_perms_.view();
  const auto v_depths = root_depths_.view();
  const auto v_lbs = root_lbs_.view();
  const DeviceLbData* data = data_;
  const auto lane_count = static_cast<std::int64_t>(roots.size());
  std::int64_t lane_base = 0;  // first global lane of the block being run

  auto body = [&](gpusim::ThreadCtx& ctx) {
    using gpusim::MemSpace;
    const std::int64_t t = lane_base + ctx.global_idx();
    if (t >= lane_count) return;  // block padding lane
    if (quota_hit) return;        // recalled before this lane started
    started = static_cast<std::size_t>(t) + 1;

    DeviceLb1Provider provider(ctx, *data);
    const auto lane = static_cast<std::size_t>(t);

    // Root pop: the serial engine's lazy pop-time elimination, against the
    // shared incumbent as of this lane's start.
    const int d0 = ctx.ld(v_depths, lane);
    const fsp::Time root_lb = ctx.ld(v_lbs, lane);
    ctx.add_loads(MemSpace::kGlobal, 1);  // shared incumbent word
    ctx.add_ops(1);
    if (root_lb >= best) {
      ++st.pruned;
      return;
    }

    // --- lane-local DFS state (level index q = depth - d0) ---------------
    const int levels = n - d0;
    std::vector<std::uint8_t> perm(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      perm[static_cast<std::size_t>(j)] =
          ctx.ld(v_perms, lane * static_cast<std::size_t>(n) +
                              static_cast<std::size_t>(j));
    }
    ctx.add_stores(MemSpace::kLocal, static_cast<std::uint64_t>(n));

    std::vector<fsp::Time> fronts(
        static_cast<std::size_t>(levels) * static_cast<std::size_t>(m));
    std::vector<fsp::Time> clb(
        static_cast<std::size_t>(levels) * static_cast<std::size_t>(n));
    std::vector<int> cursor(static_cast<std::size_t>(levels));
    std::vector<int> active(static_cast<std::size_t>(levels));
    // Packed rows, one contiguous slab per level: level q keeps
    // n_pairs x (levels - q) entries, couple-major within the level.
    std::vector<std::size_t> row_base(static_cast<std::size_t>(levels) + 1);
    for (int q = 0; q < levels; ++q) {
      row_base[static_cast<std::size_t>(q) + 1] =
          row_base[static_cast<std::size_t>(q)] +
          static_cast<std::size_t>(n_pairs) *
              static_cast<std::size_t>(levels - q);
    }
    std::vector<PackedEntry> rows(row_base[static_cast<std::size_t>(levels)]);

    auto level = [&](int d) { return static_cast<std::size_t>(d - d0); };
    auto fronts_at = [&](int d) {
      return fronts.data() + level(d) * static_cast<std::size_t>(m);
    };
    auto rows_at = [&](int d) { return rows.data() + row_base[level(d)]; };
    auto clb_at = [&](int d) {
      return clb.data() + level(d) * static_cast<std::size_t>(n);
    };

    // Per-couple constants, read once per lane through the placed tables
    // and cached thread-local.
    std::vector<CoupleCache> couples(static_cast<std::size_t>(n_pairs));
    for (int s = 0; s < n_pairs; ++s) {
      CoupleCache cc;
      cc.k = static_cast<std::uint8_t>(provider.mm_k(s));
      cc.l = static_cast<std::uint8_t>(provider.mm_l(s));
      cc.rm_k = provider.rm(cc.k);
      cc.rm_l = provider.rm(cc.l);
      cc.qm_l = provider.qm(cc.l);
      couples[static_cast<std::size_t>(s)] = cc;
    }
    ctx.add_stores(MemSpace::kLocal, static_cast<std::uint64_t>(n_pairs));

    // Root fronts: replay the scheduled prefix once per lane (the only
    // full-prefix replay this mode ever does).
    {
      fsp::Time* f0 = fronts_at(d0);
      ctx.add_stores(MemSpace::kLocal, static_cast<std::uint64_t>(m));
      for (int pos = 0; pos < d0; ++pos) {
        const int job = perm[static_cast<std::size_t>(pos)];
        fsp::Time prev = 0;
        for (int k = 0; k < m; ++k) {
          const fsp::Time start = std::max(prev, f0[k]);
          prev = start + provider.ptm(job, k);
          f0[k] = prev;
        }
        ctx.add_loads(MemSpace::kLocal, static_cast<std::uint64_t>(m));
        ctx.add_stores(MemSpace::kLocal, static_cast<std::uint64_t>(m));
        ctx.add_ops(static_cast<std::uint64_t>(2 * m));
      }
    }

    // Root rows: each couple's Johnson order compacted to the free jobs,
    // entries pre-gathered into packed records.
    if (levels >= 2) {
      std::uint8_t sched[kKernelMaxJobs] = {};
      for (int pos = 0; pos < d0; ++pos) {
        sched[perm[static_cast<std::size_t>(pos)]] = 1;
      }
      ctx.add_stores(MemSpace::kLocal, static_cast<std::uint64_t>(n));
      const int r0 = levels;
      PackedEntry* dst0 = rows_at(d0);
      for (int s = 0; s < n_pairs; ++s) {
        const CoupleCache& cc = couples[static_cast<std::size_t>(s)];
        PackedEntry* row = dst0 + static_cast<std::size_t>(s) *
                                      static_cast<std::size_t>(r0);
        int o = 0;
        for (int pos = 0; pos < n; ++pos) {
          const int q = provider.jm(s, pos);
          if (sched[q]) continue;
          PackedEntry e;
          e.job = static_cast<std::uint8_t>(q);
          e.p1 = static_cast<std::uint8_t>(provider.ptm(q, cc.k));
          e.p2 = static_cast<std::uint8_t>(provider.ptm(q, cc.l));
          e.lag = static_cast<std::uint16_t>(provider.lm(q, s));
          row[o++] = e;
        }
        ctx.add_loads(MemSpace::kLocal, static_cast<std::uint64_t>(n));
        ctx.add_stores(MemSpace::kLocal, static_cast<std::uint64_t>(r0));
        ctx.add_ops(static_cast<std::uint64_t>(n));
      }
    }

    // Incumbent improvement: snapshot launch-local counters so the host
    // replays emit_incumbent with exact running totals.
    auto record_event = [&](fsp::Time ms) {
      best = ms;
      ++st.ub_updates;
      core::DfsIncumbentEvent ev;
      ev.makespan = ms;
      ev.permutation.assign(perm.begin(), perm.end());
      ev.branched = st.branched;
      ev.evaluated = st.evaluated;
      ev.pruned = st.pruned;
      events.push_back(std::move(ev));
      ctx.add_loads(MemSpace::kLocal, static_cast<std::uint64_t>(n));
      ctx.add_stores(MemSpace::kGlobal, static_cast<std::uint64_t>(n) + 4);
    };

    // Expands the path node at depth `cur` (its branched++ already
    // counted). Fused branch+bound: every child's fronts are one O(m)
    // extension, its LB one packed-row sweep — bit-identical arithmetic to
    // Lb1BoundContext::bound_child. Returns true when the global quota
    // interrupts the launch right after this expansion.
    auto expand = [&](int cur) {
      const int r = n - cur;
      if (r == 1) {
        // The single child is the complete schedule; extend the level
        // fronts by the last job for its exact makespan.
        ++st.generated;
        ++st.leaves;
        const fsp::Time* f = fronts_at(cur);
        const int job = perm[static_cast<std::size_t>(n - 1)];
        fsp::Time prev = 0;
        for (int k = 0; k < m; ++k) {
          const fsp::Time start = std::max(prev, f[k]);
          prev = start + provider.ptm(job, k);
        }
        ctx.add_loads(MemSpace::kLocal, static_cast<std::uint64_t>(m));
        ctx.add_ops(static_cast<std::uint64_t>(2 * m));
        if (prev < best) record_event(prev);
      } else {
        st.generated += static_cast<std::uint64_t>(r);
        const fsp::Time* f = fronts_at(cur);
        const PackedEntry* row0 = rows_at(cur);
        fsp::Time* cl = clb_at(cur + 1);
        ctx.add_loads(MemSpace::kGlobal, 1);  // refresh the shared incumbent
        ctx.add_ops(1);
        for (int i = 0; i < r; ++i) {
          const std::uint8_t jb = perm[static_cast<std::size_t>(cur + i)];
          // Child fronts: one O(m) extension by the scheduled job.
          fsp::Time cf[kKernelMaxMachines];
          fsp::Time prev = 0;
          for (int k = 0; k < m; ++k) {
            const fsp::Time start = std::max(prev, f[k]);
            prev = start + provider.ptm(jb, k);
            cf[k] = prev;
          }
          ctx.add_loads(MemSpace::kLocal, static_cast<std::uint64_t>(m));
          ctx.add_stores(MemSpace::kLocal, static_cast<std::uint64_t>(m));
          ctx.add_ops(static_cast<std::uint64_t>(2 * m));
          // LB1 sweep over the packed rows — thread-local memory only.
          fsp::Time lb = 0;
          for (int s = 0; s < n_pairs; ++s) {
            const CoupleCache& cc = couples[static_cast<std::size_t>(s)];
            fsp::Time t1 = std::max(cf[cc.k], cc.rm_k);
            fsp::Time t2 = std::max(cf[cc.l], cc.rm_l);
            const PackedEntry* row = row0 + static_cast<std::size_t>(s) *
                                                static_cast<std::size_t>(r);
            for (int e = 0; e < r; ++e) {
              const PackedEntry pe = row[e];
              if (pe.job == jb) continue;
              t1 += pe.p1;
              const fsp::Time arrival = t1 + pe.lag;
              t2 = (t2 > arrival ? t2 : arrival) + pe.p2;
            }
            t2 += cc.qm_l;
            lb = std::max(lb, t2);
          }
          ctx.add_loads(MemSpace::kLocal,
                        static_cast<std::uint64_t>(n_pairs) *
                            static_cast<std::uint64_t>(r + 3));
          ctx.add_ops(static_cast<std::uint64_t>(n_pairs) *
                      static_cast<std::uint64_t>(r * 4 + 6));
          ++st.evaluated;
          // Insert-time elimination, fused: the serial engine bounds the
          // whole batch before inserting, but the incumbent cannot move
          // inside one children loop, so per-child checks are identical.
          if (lb >= best) {
            ++st.pruned;
            cl[i] = kDeadChild;
          } else {
            cl[i] = lb;
          }
          ctx.add_stores(MemSpace::kLocal, 1);
          ctx.add_ops(1);
        }
        cursor[level(cur + 1)] = r - 1;  // LIFO: last child pops first
      }
      return st.branched == quota;
    };

    // Materializes child `i` of the path node at depth tt-1 for the host
    // (surfacing): apply the branch swap, copy the permutation out, undo.
    auto materialize = [&](int tt, int i) {
      const auto a = static_cast<std::size_t>(tt - 1);
      const auto b = static_cast<std::size_t>(tt - 1 + i);
      std::swap(perm[a], perm[b]);
      core::Subproblem sp;
      sp.perm.assign(perm.begin(), perm.end());
      sp.depth = tt;
      sp.lb = clb_at(tt)[i];
      surfaced.push_back(std::move(sp));
      std::swap(perm[a], perm[b]);
      ctx.add_loads(MemSpace::kLocal, static_cast<std::uint64_t>(n) + 1);
      ctx.add_stores(MemSpace::kGlobal, static_cast<std::uint64_t>(n) + 2 + 4);
    };

    // Quota interrupt: surface every pending (live, unexplored) sibling in
    // the exact order a serial depth-first engine would pop them next —
    // deepest level first, each level scanned cursor-down. The lazy
    // `lb >= best` check is NOT applied here: those nodes return to the
    // host pool and get their pop-time elimination (and its counter) at
    // the serial point, in a later launch or the engine's drain.
    auto surface = [&](int cur, bool leaf) {
      int tt;
      if (leaf) {
        if (cur == d0) return;  // root-leaf lane: nothing pending
        // Unwind the leaf's own branch swap; its unexplored siblings
        // surface first.
        const auto a = static_cast<std::size_t>(cur - 1);
        std::swap(perm[a], perm[a + static_cast<std::size_t>(
                                        active[level(cur)])]);
        tt = cur;
      } else {
        tt = cur + 1;
      }
      for (; tt >= d0 + 1; --tt) {
        const fsp::Time* cl = clb_at(tt);
        for (int i = cursor[level(tt)]; i >= 0; --i) {
          if (cl[i] == kDeadChild) continue;
          materialize(tt, i);
        }
        if (tt - 1 >= d0 + 1) {
          const auto a = static_cast<std::size_t>(tt - 2);
          std::swap(perm[a], perm[a + static_cast<std::size_t>(
                                          active[level(tt - 1)])]);
        }
      }
    };

    // --- the iterative DFS ------------------------------------------------
    ++st.branched;
    const bool root_leaf = levels == 1;
    if (expand(d0)) {
      surface(d0, root_leaf);
      quota_hit = true;
      return;
    }
    if (root_leaf) return;  // the subtree was a single complete schedule

    int tt = d0 + 1;
    while (tt >= d0 + 1) {
      // Scan level tt for the next live child (serial LIFO pop order).
      int found = -1;
      {
        const fsp::Time* cl = clb_at(tt);
        int& cu = cursor[level(tt)];
        while (cu >= 0) {
          const int i = cu--;
          ctx.add_loads(MemSpace::kLocal, 1);
          ctx.add_ops(1);
          if (cl[i] == kDeadChild) continue;  // died at insert time
          // Pop-time lazy elimination against the shared incumbent.
          ctx.add_loads(MemSpace::kGlobal, 1);
          ctx.add_ops(1);
          if (cl[i] >= best) {
            ++st.pruned;
            continue;
          }
          found = i;
          break;
        }
      }
      if (found < 0) {
        // Level exhausted — backtrack (undo the parent's branch swap).
        if (tt - 1 == d0) break;  // subtree exhausted, lane done
        const auto a = static_cast<std::size_t>(tt - 2);
        std::swap(perm[a], perm[a + static_cast<std::size_t>(
                                        active[level(tt - 1)])]);
        ctx.add_loads(MemSpace::kLocal, 2);
        ctx.add_stores(MemSpace::kLocal, 2);
        --tt;
        continue;
      }
      // Descend into child `found`: apply the branch swap and extend the
      // incremental state one level (O(m) fronts, one row compaction).
      {
        const auto a = static_cast<std::size_t>(tt - 1);
        std::swap(perm[a], perm[a + static_cast<std::size_t>(found)]);
        active[level(tt)] = found;
        ctx.add_loads(MemSpace::kLocal, 2);
        ctx.add_stores(MemSpace::kLocal, 2);
      }
      ++st.branched;
      {
        const fsp::Time* pf = fronts_at(tt - 1);
        fsp::Time* f = fronts_at(tt);
        const int job = perm[static_cast<std::size_t>(tt - 1)];
        fsp::Time prev = 0;
        for (int k = 0; k < m; ++k) {
          const fsp::Time start = std::max(prev, pf[k]);
          prev = start + provider.ptm(job, k);
          f[k] = prev;
        }
        ctx.add_loads(MemSpace::kLocal, static_cast<std::uint64_t>(m));
        ctx.add_stores(MemSpace::kLocal, static_cast<std::uint64_t>(m));
        ctx.add_ops(static_cast<std::uint64_t>(2 * m));
      }
      const bool leaf = n - tt == 1;
      if (!leaf) {
        // rows[tt] = rows[tt-1] minus the newly scheduled job, Johnson
        // order preserved.
        const int pr = n - (tt - 1);
        const std::uint8_t jb = perm[static_cast<std::size_t>(tt - 1)];
        const PackedEntry* src0 = rows_at(tt - 1);
        PackedEntry* dst0 = rows_at(tt);
        for (int s = 0; s < n_pairs; ++s) {
          const PackedEntry* src = src0 + static_cast<std::size_t>(s) *
                                              static_cast<std::size_t>(pr);
          PackedEntry* dst = dst0 + static_cast<std::size_t>(s) *
                                        static_cast<std::size_t>(pr - 1);
          int o = 0;
          for (int e = 0; e < pr; ++e) {
            if (src[e].job != jb) dst[o++] = src[e];
          }
        }
        ctx.add_loads(MemSpace::kLocal, static_cast<std::uint64_t>(n_pairs) *
                                            static_cast<std::uint64_t>(pr));
        ctx.add_stores(MemSpace::kLocal,
                       static_cast<std::uint64_t>(n_pairs) *
                           static_cast<std::uint64_t>(pr - 1));
        ctx.add_ops(static_cast<std::uint64_t>(n_pairs) *
                    static_cast<std::uint64_t>(pr));
      }
      if (expand(tt)) {
        surface(tt, leaf);
        quota_hit = true;
        return;
      }
      if (leaf) {
        // Leaf consumed: undo its branch swap and keep scanning its
        // siblings at this level.
        const auto a = static_cast<std::size_t>(tt - 1);
        std::swap(perm[a], perm[a + static_cast<std::size_t>(found)]);
        ctx.add_loads(MemSpace::kLocal, 2);
        ctx.add_stores(MemSpace::kLocal, 2);
      } else {
        ++tt;
      }
    }
    // Subtree exhausted; the lane's root was fully consumed.
  };

  auto prologue = [data](int, gpusim::AccessCounters& counters) {
    data->account_block_staging(counters);
  };

  // Drive the grid one block at a time, in block order: functionally this
  // preserves the global serial lane order bit-identity rests on, while
  // the merged run describes the real multi-block launch the timing model
  // prices (blocks run concurrently across SMs on hardware; the shared
  // incumbent would relax to monotone-but-reordered there). Blocks whose
  // first lane would already see the quota recall never launch — their
  // roots were never started, exactly like their lanes' early return.
  const auto bt = static_cast<std::size_t>(block_threads_);
  const std::size_t grid = (roots.size() + bt - 1) / bt;
  io.run = gpusim::KernelRun{};
  for (std::size_t b = 0; b < grid && !quota_hit; ++b) {
    lane_base = static_cast<std::int64_t>(b * bt);
    gpusim::LaunchConfig config;
    config.grid_blocks = 1;
    config.block_threads = static_cast<int>(
        std::min(bt, (roots.size() - b * bt + 31) / 32 * 32));
    const gpusim::KernelRun run = device_->launch(config, body, prologue);
    io.run.counters += run.counters;
    io.run.threads_executed += run.threads_executed;
    io.run.blocks_executed += run.blocks_executed;
    io.run.work_units_sum += run.work_units_sum;
    io.run.work_units_warp_max += run.work_units_warp_max;
  }
  io.run.threads_logical = io.run.threads_executed;

  // Counters + incumbent word up, each event's schedule, each surfaced
  // node's packed payload (u8 perm + u16 depth + i32 lb).
  io.d2h_bytes = 4 + 5 * 8 + 8;
  for (const core::DfsIncumbentEvent& ev : events) {
    io.d2h_bytes += ev.permutation.size() + 4;
  }
  io.d2h_bytes += surfaced.size() * (static_cast<std::size_t>(n) + 2 + 4);

  out.stats = st;
  out.incumbents = std::move(events);
  out.surfaced = std::move(surfaced);
  out.roots_started = started;
}

}  // namespace fsbb::gpubb
