#include "pace/aligner.hpp"

#include <string>

#include "align/dispatch.hpp"

namespace estclust::pace {

namespace {

align::Anchor anchor_of(const pairgen::PromisingPair& pair) {
  align::Anchor anchor;
  anchor.a_pos = pair.a_pos;
  anchor.b_pos = pair.b_pos;
  anchor.len = pair.match_len;
  return anchor;
}

}  // namespace

PairEvaluation evaluate_pair(const bio::EstSet& ests,
                             const pairgen::PromisingPair& pair,
                             const align::OverlapParams& params) {
  auto a = ests.str(bio::EstSet::forward_sid(pair.a));
  auto b = ests.str(pair.b_rc ? bio::EstSet::rc_sid(pair.b)
                              : bio::EstSet::forward_sid(pair.b));
  PairEvaluation out;
  out.overlap = align::align_anchored(a, b, anchor_of(pair), params);
  out.accepted = align::accept_overlap(out.overlap, params);
  return out;
}

PairEvaluation PairAligner::evaluate(const pairgen::PromisingPair& pair) {
  // Anchors within one band width of each other share a DP corridor; the
  // window id is the memo's "same alignment problem" coordinate.
  const std::int64_t diag = static_cast<std::int64_t>(pair.a_pos) -
                            static_cast<std::int64_t>(pair.b_pos);
  const std::int64_t window_width =
      2 * static_cast<std::int64_t>(cfg_.overlap.band) + 1;
  // Floor division (diag may be negative).
  std::int64_t window = diag / window_width;
  if (diag % window_width < 0) --window;

  if (const AlignMemo::Entry* e = memo_.lookup(pair, window)) {
    PairEvaluation out;
    out.overlap = e->result;
    out.overlap.cells = 0;  // no DP ran; nothing to charge
    out.accepted = e->accepted;
    out.memo_hit = true;
    return out;
  }

  auto a = ests_.str(bio::EstSet::forward_sid(pair.a));
  auto b = ests_.str(pair.b_rc ? bio::EstSet::rc_sid(pair.b)
                               : bio::EstSet::forward_sid(pair.b));
  const align::Anchor anchor = anchor_of(pair);

  PairEvaluation out;
  out.overlap = cfg_.bounded_align
                    ? align::align_anchored_bounded(a, b, anchor,
                                                    cfg_.overlap, arena_)
                    : align::align_anchored(a, b, anchor, cfg_.overlap,
                                            arena_);
  out.accepted = align::accept_overlap(out.overlap, cfg_.overlap);
  memo_.insert(pair, window, out.overlap, out.accepted);
  return out;
}

void publish_aligner_metrics(obs::MetricsRegistry& metrics,
                             obs::RankTracer* tracer,
                             const PairAligner& aligner,
                             std::uint64_t pairs_aligned) {
  metrics.counter("pace.pairs_aligned").add(pairs_aligned);
  const MemoStats& memo = aligner.memo_stats();
  metrics.counter("pace.memo_lookups").add(memo.lookups);
  metrics.counter("pace.memo_hits").add(memo.hits);
  metrics.counter("pace.memo_insertions").add(memo.insertions);
  metrics.counter("pace.memo_evictions").add(memo.evictions);
  const align::KernelVariant kv = align::active_kernel();
  metrics.counter(std::string("kernel.variant.") + align::to_string(kv))
      .add(pairs_aligned);
  metrics.gauge("align.arena_bytes", obs::MergeOp::kMax)
      .set(static_cast<double>(aligner.arena().high_water_bytes()));
  if (tracer) {
    tracer->instant("kernel.variant", "align",
                    static_cast<std::uint64_t>(kv));
  }
}

}  // namespace estclust::pace
