#include "pace/parallel.hpp"

#include <algorithm>

#include "gst/parallel.hpp"
#include "obs/trace.hpp"
#include "pace/aligner.hpp"
#include "pace/master.hpp"
#include "pace/share.hpp"
#include "pace/slave.hpp"
#include "pairgen/source.hpp"
#include "util/check.hpp"

namespace estclust::pace {

namespace {

/// Publishes the aggregated per-phase times (Table 3's columns) onto the
/// registry. Gauges are max-merged, so per-rank raw values (set by the
/// slaves) and the allreduced aggregates (set here) fold to one number.
void publish_phase_gauges(mpr::Communicator& comm, const PaceStats& st) {
  auto& m = comm.metrics();
  m.gauge("pace.t_partition", obs::MergeOp::kMax).set(st.t_partition);
  m.gauge("pace.t_gst", obs::MergeOp::kMax).set(st.t_gst);
  m.gauge("pace.t_sort", obs::MergeOp::kMax).set(st.t_sort);
  m.gauge("pace.t_align", obs::MergeOp::kMax).set(st.t_align);
  m.gauge("pace.t_total", obs::MergeOp::kMax).set(st.t_total);
  m.gauge("pace.master_busy_fraction", obs::MergeOp::kMax)
      .set(st.master_busy_fraction);
  m.gauge("pace.num_clusters", obs::MergeOp::kMax)
      .set(static_cast<double>(st.num_clusters));
}

/// Wire codec for the final label broadcast. One vector field, but a
/// named encode/decode pair keeps the payload inside the codec and
/// bounds analyzer rules (field symmetry, exhaustion on receipt).
mpr::Buffer encode_labels(const std::vector<std::uint32_t>& labels) {
  mpr::BufWriter w;
  w.put_vec(labels);
  return w.take();
}

std::vector<std::uint32_t> decode_labels(const mpr::Buffer& b) {
  mpr::BufReader r(b);
  std::vector<std::uint32_t> labels = r.get_vec<std::uint32_t>();
  r.expect_exhausted("labels");
  return labels;
}

/// §3.1 for this rank. gst: the collective distributed-GST build, which
/// every rank joins. kmer/fm: each owning rank recomputes its bucket share
/// offline under the partitioning span — no communication and no forest;
/// ranks below `first_owner_rank` own nothing and skip the scan. Sets
/// `st.t_partition` / `st.t_gst` to this rank's own phase times.
RankShare partition_phase(mpr::Communicator& comm, const bio::EstSet& ests,
                          const PaceConfig& cfg, int first_owner_rank,
                          PaceStats& st) {
  RankShare share;
  if (cfg.pair_source == pairgen::Backend::kGst) {
    gst::ParallelBuildStats build_stats;
    share.forest = gst::build_forest_parallel(comm, ests, cfg.gst,
                                              &build_stats, first_owner_rank);
    st.t_partition = build_stats.partition_vtime;
    st.t_gst = build_stats.build_vtime;
  } else if (comm.rank() >= first_owner_rank) {
    ESTCLUST_TRACE_SPAN(comm.tracer(), "partitioning", "phase");
    const double t = comm.clock().time();
    share = recompute_share(comm, ests, cfg, first_owner_rank, comm.rank());
    st.t_partition = comm.clock().time() - t;
  }
  return share;
}

/// Builds this rank's pair source inside the node_sorting span (the GST
/// walk's node sorting — Table 3's "Sorting Nodes" column — or the seed
/// backends' index construction) and sets `st.t_sort` to its time.
std::unique_ptr<pairgen::PairSource> node_sorting_phase(
    mpr::Communicator& comm, const bio::EstSet& ests, const PaceConfig& cfg,
    RankShare& share, PaceStats& st) {
  ESTCLUST_TRACE_SPAN(comm.tracer(), "node_sorting", "phase");
  const double t = comm.clock().time();
  auto source = make_source(ests, cfg, share);
  comm.charge(comm.cost_model().sort_op, source->construction_sort_units());
  st.t_sort = comm.clock().time() - t;
  comm.metrics().gauge("pace.t_sort", obs::MergeOp::kMax).set(st.t_sort);
  comm.metrics()
      .gauge("pairgen.index_bytes", obs::MergeOp::kMax)
      .set(static_cast<double>(source->index_bytes()));
  return source;
}

/// Publishes the drained stream's working memory beside the index bytes:
/// the lset high-water marks (0 for the seed backends).
void publish_walk_memory(mpr::Communicator& comm,
                         const pairgen::PairSource& source) {
  auto& m = comm.metrics();
  m.gauge("pairgen.lset_peak_slots", obs::MergeOp::kMax)
      .set(static_cast<double>(source.peak_lset_slots()));
  m.gauge("pairgen.lset_peak_bytes", obs::MergeOp::kMax)
      .set(static_cast<double>(source.peak_lset_bytes()));
}

/// p = 1: the full pipeline on one rank with identical charging, so the
/// single-processor point of the scaling curves is measured by the same
/// clock as the parallel points.
ParallelResult cluster_single_rank(mpr::Communicator& comm,
                                   const bio::EstSet& ests,
                                   const PaceConfig& cfg) {
  const auto& cm = comm.cost_model();
  ClusterState state(ests.num_ests());
  PaceStats& st = state.stats;

  RankShare share = partition_phase(comm, ests, cfg, 0, st);
  auto gen = node_sorting_phase(comm, ests, cfg, share, st);

  obs::RankTracer* tracer = comm.tracer();
  const double t = comm.clock().time();
  if (tracer) tracer->begin("alignment", "phase");
  PairAligner aligner(ests, cfg);
  std::vector<pairgen::PromisingPair> batch;
  while (gen->next_batch(cfg.batchsize, batch) > 0) {
    comm.charge(cm.pair_op, gen->take_work_units());
    for (const auto& p : batch) {
      if (!state.skip(p)) comm.charge(cm.dp_cell, state.align(p, aligner));
    }
    comm.charge(cm.uf_op, state.take_uf_ops());
    batch.clear();
  }
  st.t_align = comm.clock().time() - t;
  if (tracer) tracer->end("alignment");
  publish_walk_memory(comm, *gen);

  st.pairs_generated = gen->stats().pairs_emitted;
  st.num_clusters = state.clusters.num_clusters();
  st.t_total = comm.clock().time();

  auto& metrics = comm.metrics();
  metrics.counter("pace.pairs_generated").add(st.pairs_generated);
  metrics.counter("pace.pairs_accepted").add(st.pairs_accepted);
  metrics.counter("pace.pairs_skipped").add(st.pairs_skipped);
  metrics.counter("pace.merges").add(st.merges);
  metrics.counter("pace.dp_cells").add(st.dp_cells);
  publish_aligner_metrics(metrics, tracer, aligner, st.pairs_processed);
  publish_phase_gauges(comm, st);
  return {state.clusters.labels(), st, std::move(state.overlaps)};
}

}  // namespace

ParallelResult cluster_parallel(mpr::Communicator& comm,
                                const bio::EstSet& ests,
                                const PaceConfig& cfg) {
  cfg.validate();
  if (comm.size() == 1) return cluster_single_rank(comm, ests, cfg);

  // Keep the soft WORKBUF cap comfortably above the slaves' unsolicited
  // initial batches so flow control starts in steady state.
  PaceConfig effective = cfg;
  effective.workbuf_capacity =
      std::max(cfg.workbuf_capacity,
               4 * static_cast<std::size_t>(comm.size()) * cfg.batchsize);

  ParallelResult res;
  PaceStats& st = res.stats;

  // Phase 1+2: each slave's §3.1 share; the master owns no bucket.
  RankShare share =
      partition_phase(comm, ests, effective, /*first_owner_rank=*/1, st);
  st.t_partition = comm.allreduce_max(st.t_partition);
  st.t_gst = comm.allreduce_max(st.t_gst);

  // Phase 3+4: master/slave clustering loop.
  std::vector<std::uint32_t> labels;
  SlaveCounters slave_counters;
  PaceStats master_stats;  // the master's cluster-step counters
  double master_busy = 0.0;
  if (comm.rank() == 0) {
    // Active = busy + comm: the master's work is mostly protocol handling,
    // so its message overheads belong in the utilization numerator.
    const double busy_before = comm.clock().active_time();
    Master master(comm, ests, effective);
    master.run();
    master_busy = comm.clock().active_time() - busy_before;
    ClusterState& state = master.cluster_state();
    master_stats = state.stats;
    labels = state.clusters.labels();
    st.num_clusters = state.clusters.num_clusters();
    res.overlaps = std::move(state.overlaps);
  } else {
    auto source = node_sorting_phase(comm, ests, effective, share, st);
    Slave slave(comm, ests, effective, std::move(source));
    slave_counters = slave.run();
    publish_walk_memory(comm, slave.source());
  }

  // Aggregate counters and phase times.
  st.pairs_generated = comm.allreduce_sum(slave_counters.pairs_generated);
  st.pairs_processed = comm.allreduce_sum(slave_counters.pairs_aligned);
  st.dp_cells = comm.allreduce_sum(slave_counters.dp_cells);
  st.pairs_accepted = comm.allreduce_sum(master_stats.pairs_accepted);
  st.pairs_skipped = comm.allreduce_sum(master_stats.pairs_skipped);
  st.merges = comm.allreduce_sum(master_stats.merges);
  st.num_clusters = static_cast<std::size_t>(
      comm.allreduce_max(static_cast<std::uint64_t>(st.num_clusters)));
  st.t_sort = comm.allreduce_max(st.t_sort);
  st.t_align = comm.allreduce_max(slave_counters.loop_vtime);
  st.t_total = comm.allreduce_max(comm.clock().time());
  st.master_busy_fraction =
      comm.allreduce_max(master_busy) / std::max(st.t_total, 1e-12);
  if (comm.rank() == 0) publish_phase_gauges(comm, st);

  // Share the clustering with every rank.
  res.labels = decode_labels(comm.broadcast(encode_labels(labels)));
  return res;
}

}  // namespace estclust::pace
