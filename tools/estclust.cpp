// estclust — command-line front end for the EST clustering library.
//
//   estclust simulate --ests N [--genes G] [--seed S] --out lib.fa
//                     [--truth truth.txt] [--alt-splice P]
//   estclust cluster  --in lib.fa --out clusters.txt [--psi 20]
//                     [--window 8] [--min-quality 0.8] [--min-overlap 40]
//                     [--ranks P]          (P > 1: simulated parallel run)
//                     [--trace trace.json] (Chrome/Perfetto virtual-time trace)
//                     [--breakdown rep.txt] [--metrics]  (per-phase report /
//                      registry dump; both imply the virtual-time runtime)
//                     [--profile[=prof.json]] (critical-path profile: report
//                      to stdout, deterministic JSON to the optional file)
//   estclust eval     --clusters clusters.txt --truth truth.txt
//   estclust splice   --in lib.fa [--psi 20] [--min-gap 25]
//   estclust assemble --in lib.fa --out contigs.fa [cluster options]
//
// `cluster` writes one line per cluster listing EST names. `eval` compares
// a clustering against a truth file (one integer gene id per line, in EST
// order) with the paper's OQ/OV/UN/CC metrics.

#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>

#include "analysis/splice.hpp"
#include "assembly/consensus.hpp"
#include "bio/fasta.hpp"
#include "check/checker.hpp"
#include "gst/builder.hpp"
#include "mpr/fault.hpp"
#include "mpr/runtime.hpp"
#include "mpr/mailbox.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "pace/messages.hpp"
#include "pace/parallel.hpp"
#include "pace/sequential.hpp"
#include "pairgen/source.hpp"
#include "quality/report.hpp"
#include "sim/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace estclust;

int usage() {
  std::cerr
      << "usage: estclust <simulate|cluster|eval|splice|assemble> [options]\n"
         "  simulate --ests N [--genes G] [--seed S] [--alt-splice P]\n"
         "           --out lib.fa [--truth truth.txt]\n"
         "  cluster  --in lib.fa --out clusters.txt [--psi 20] [--window 8]\n"
         "           [--min-quality 0.8] [--min-overlap 40] [--ranks P]\n"
         "           [--pair-source gst|kmer|fm]  (candidate filter: GST\n"
         "            walk, k-mer inverted index, or sorted seeds; clusters\n"
         "            are identical across backends)\n"
         "           [--trace trace.json] [--breakdown report.txt]\n"
         "           [--profile[=prof.json]] [--metrics]\n"
         "           [--check off|warn|strict]\n"
         "           [--faults off|seed=U64,drop=P,dup=P,delay=P,\n"
         "                     kill=RANK@VTIME,...]  (deterministic fault\n"
         "            injection into the master/slave protocol; implies a\n"
         "            parallel run. Clusters are unchanged by any plan.)\n"
         "  eval     --clusters clusters.txt --truth truth.txt --in lib.fa\n"
         "  splice   --in lib.fa [--psi 20] [--min-gap 25]\n"
         "  assemble --in lib.fa --out contigs.fa [cluster options]\n";
  return 2;
}

int cmd_simulate(const CliArgs& args) {
  sim::SimConfig cfg = sim::scaled_config(
      static_cast<std::size_t>(args.get_int("ests", 500)),
      static_cast<std::uint64_t>(args.get_int("seed", 20020811)));
  if (auto g = args.get("genes")) cfg.num_genes = std::stoull(*g);
  cfg.alt_splice_prob = args.get_double("alt-splice", 0.0);
  auto wl = sim::generate(cfg);

  const std::string out = args.get_string("out", "library.fa");
  std::vector<bio::Sequence> seqs;
  for (std::size_t i = 0; i < wl.ests.num_ests(); ++i) {
    seqs.push_back(wl.ests.est(static_cast<bio::EstId>(i)));
  }
  bio::write_fasta_file(out, seqs);
  std::cout << "wrote " << seqs.size() << " ESTs from " << cfg.num_genes
            << " genes to " << out << "\n";
  if (auto truth_path = args.get("truth")) {
    std::ofstream t(*truth_path);
    for (auto g : wl.truth) t << g << '\n';
    std::cout << "wrote truth labels to " << *truth_path << "\n";
  }
  return 0;
}

pace::PaceConfig cluster_config(const CliArgs& args) {
  pace::PaceConfig cfg;
  cfg.psi = static_cast<std::uint32_t>(args.get_int("psi", 20));
  cfg.gst.window = static_cast<std::uint32_t>(args.get_int("window", 8));
  cfg.batchsize = static_cast<std::size_t>(args.get_int("batchsize", 60));
  cfg.overlap.min_quality = args.get_double("min-quality", 0.8);
  cfg.overlap.min_overlap =
      static_cast<std::size_t>(args.get_int("min-overlap", 40));
  cfg.overlap.band = static_cast<std::size_t>(args.get_int("band", 8));
  const std::string source = args.get_string("pair-source", "gst");
  const auto backend = pairgen::parse_backend(source);
  ESTCLUST_CHECK_MSG(backend.has_value(),
                     "--pair-source must be gst, kmer or fm (got '"
                         << source << "')");
  cfg.pair_source = *backend;
  return cfg;
}

int cmd_cluster(const CliArgs& args) {
  auto in = args.get("in");
  if (!in) return usage();
  int ranks = static_cast<int>(args.get_int("ranks", 1));
  if (ranks < 1) {
    std::cerr << "--ranks must be >= 1 (got " << ranks << ")\n";
    return usage();
  }
  bio::EstSet ests(bio::read_fasta_file(*in));
  auto cfg = cluster_config(args);

  const auto trace_path = args.get("trace");
  const auto breakdown_path = args.get("breakdown");
  const bool want_metrics = args.has_flag("metrics");
  // --profile alone prints the report; --profile=FILE also writes the
  // deterministic profile JSON. Profiling needs the flow-traced runtime.
  const bool want_profile = args.has_flag("profile");
  const auto profile_path = args.get("profile");
  cfg.trace =
      trace_path.has_value() || breakdown_path.has_value() || want_profile;

  mpr::CheckMode check_mode = mpr::CheckMode::kOff;
  const std::string check_arg = args.get_string("check", "off");
  ESTCLUST_CHECK_MSG(check::parse_check_mode(check_arg, &check_mode),
                     "--check must be off, warn or strict (got '"
                         << check_arg << "')");

  const mpr::FaultSpec faults =
      mpr::parse_fault_spec(args.get_string("faults", "off"));
  faults.validate();

  std::vector<std::uint32_t> labels;
  // Observability, checking and fault injection ride on the virtual-time
  // runtime; a single-rank request for any of them still routes through
  // it (with p = 2: one master, one slave), and says so on stderr.
  if (ranks < 2) {
    std::string why;
    const auto need = [&](bool on, const char* flag) {
      if (on) why += (why.empty() ? "" : ", ") + std::string(flag);
    };
    need(trace_path.has_value(), "--trace");
    need(want_metrics, "--metrics");
    need(breakdown_path.has_value(), "--breakdown");
    need(want_profile, "--profile");
    need(check_mode != mpr::CheckMode::kOff, "--check");
    need(faults.enabled, "--faults");
    if (!why.empty()) {
      ranks = 2;
      std::cerr << "note: --ranks 1 runs on 2 ranks (one master, one slave)"
                   " because of "
                << why << "\n";
    }
  }
  if (ranks > 1) {
    mpr::Runtime rt(ranks, mpr::CostModel{});
    if (faults.enabled) {
      rt.set_fault_plan(std::make_shared<mpr::FaultPlan>(faults, ranks));
      std::cout << "fault injection: " << mpr::format_fault_spec(faults)
                << "\n";
    }
    if (cfg.trace) rt.enable_tracing(cfg.trace_message_flows);
    check::Checker* checker = check::enable_checking(rt, check_mode);
    std::mutex mu;
    rt.run([&](mpr::Communicator& comm) {
      auto res = pace::cluster_parallel(comm, ests, cfg);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        labels = std::move(res.labels);
        std::cout << "parallel run (" << ranks << " ranks): "
                  << res.stats.pairs_processed << " of "
                  << res.stats.pairs_generated
                  << " promising pairs aligned; modeled run-time "
                  << res.stats.t_total << " virt s\n";
      }
    });
    if (trace_path) {
      std::ofstream ts(*trace_path);
      ESTCLUST_CHECK_MSG(ts.good(), "cannot open " << *trace_path);
      obs::write_chrome_trace(ts, *rt.tracer());
      std::cout << "trace (" << rt.tracer()->total_events()
                << " events) written to " << *trace_path << "\n";
    }
    if (breakdown_path) {
      std::ofstream bs(*breakdown_path);
      ESTCLUST_CHECK_MSG(bs.good(), "cannot open " << *breakdown_path);
      obs::write_breakdown_report(bs, *rt.tracer(), rt.rank_times());
      std::cout << "phase breakdown written to " << *breakdown_path << "\n";
    }
    if (want_profile) {
      obs::ProfileOptions popts;
      popts.tag_names = {{pace::kTagReport, "REPORT"},
                         {pace::kTagAssign, "ASSIGN"},
                         {pace::kTagAck, "ACK"},
                         {pace::kTagHeartbeat, "HEARTBEAT"}};
      popts.internal_tag_base = mpr::kInternalTagBase;
      popts.recv_overhead = mpr::CostModel{}.recv_overhead;
      const obs::Profile prof =
          obs::build_profile(*rt.tracer(), rt.rank_times(), popts);
      if (profile_path && !profile_path->empty()) {
        std::ofstream ps(*profile_path);
        ESTCLUST_CHECK_MSG(ps.good(), "cannot open " << *profile_path);
        obs::write_profile_json(ps, prof);
        std::cout << "profile (" << prof.path.segments.size()
                  << " critical-path segments) written to " << *profile_path
                  << "\n";
      }
      obs::write_profile_report(std::cout, prof, popts);
    }
    if (want_metrics) {
      auto merged = rt.merged_metrics();
      merged.write_report(std::cout);
    }
    if (checker) {
      const auto findings = checker->findings();
      if (findings.empty()) {
        std::cout << "check (" << check_arg << "): clean\n";
      } else {
        std::cout << "check (" << check_arg << "): " << findings.size()
                  << " finding(s) logged\n";
      }
    }
  } else {
    auto res = pace::cluster_sequential(ests, cfg);
    labels = res.clusters.labels();
    std::cout << res.stats.pairs_processed << " of "
              << res.stats.pairs_generated
              << " promising pairs aligned in " << res.stats.t_total
              << " s\n";
  }

  // Group ESTs by label, ordered by smallest member.
  std::map<std::uint32_t, std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    groups[labels[i]].push_back(i);
  }
  const std::string out = args.get_string("out", "clusters.txt");
  std::ofstream os(out);
  std::size_t cid = 0;
  for (const auto& [label, members] : groups) {
    os << ">cluster_" << cid++ << " size=" << members.size() << '\n';
    for (auto i : members) {
      os << ests.est(static_cast<bio::EstId>(i)).id << '\n';
    }
  }
  std::cout << groups.size() << " clusters written to " << out << "\n";
  return 0;
}

int cmd_eval(const CliArgs& args) {
  auto clusters_path = args.get("clusters");
  auto truth_path = args.get("truth");
  auto in = args.get("in");
  if (!clusters_path || !truth_path || !in) return usage();

  bio::EstSet ests(bio::read_fasta_file(*in));
  std::map<std::string, std::size_t> name_to_idx;
  for (std::size_t i = 0; i < ests.num_ests(); ++i) {
    name_to_idx[ests.est(static_cast<bio::EstId>(i)).id] = i;
  }

  std::vector<std::uint32_t> predicted(ests.num_ests(), 0);
  std::ifstream cs(*clusters_path);
  ESTCLUST_CHECK_MSG(cs.good(), "cannot open " << *clusters_path);
  std::string line;
  std::uint32_t current = 0;
  bool seen_header = false;
  while (std::getline(cs, line)) {
    if (line.empty()) continue;
    if (line[0] == '>') {
      current = seen_header ? current + 1 : 0;
      seen_header = true;
    } else {
      auto it = name_to_idx.find(line);
      ESTCLUST_CHECK_MSG(it != name_to_idx.end(),
                         "unknown EST name '" << line << "'");
      predicted[it->second] = current;
    }
  }

  std::vector<std::uint32_t> truth;
  std::ifstream ts(*truth_path);
  ESTCLUST_CHECK_MSG(ts.good(), "cannot open " << *truth_path);
  std::uint32_t g = 0;
  while (ts >> g) truth.push_back(g);
  ESTCLUST_CHECK_MSG(truth.size() == ests.num_ests(),
                     "truth file has " << truth.size() << " labels for "
                                       << ests.num_ests() << " ESTs");

  auto report = quality::build_report(predicted, truth);
  const auto& pc = report.pairs;
  TablePrinter t({"metric", "value (%)"});
  t.add_row({"OQ (overlap quality)", TablePrinter::fmt(pc.overlap_quality())});
  t.add_row({"OV (over-prediction)", TablePrinter::fmt(pc.over_prediction())});
  t.add_row({"UN (under-prediction)",
             TablePrinter::fmt(pc.under_prediction())});
  t.add_row({"CC (correlation)", TablePrinter::fmt(pc.correlation())});
  t.print(std::cout);

  std::cout << "\ncluster diagnostics: " << report.clusters.size()
            << " predicted clusters, " << report.impure_clusters()
            << " impure; " << report.truths.size() << " true genes, "
            << report.fragmented_truths() << " fragmented; weighted purity "
            << TablePrinter::fmt(100.0 * report.weighted_purity(), 2)
            << "%\n";
  std::size_t shown = 0;
  for (const auto& c : report.clusters) {
    if (c.truth_clusters <= 1 || shown >= 5) continue;
    std::cout << "  impure cluster " << c.label << ": " << c.size
              << " ESTs from " << c.truth_clusters << " genes (purity "
              << TablePrinter::fmt(100.0 * c.purity, 1) << "%)\n";
    ++shown;
  }
  return 0;
}

int cmd_splice(const CliArgs& args) {
  auto in = args.get("in");
  if (!in) return usage();
  bio::EstSet ests(bio::read_fasta_file(*in));

  analysis::SpliceParams params;
  params.psi = static_cast<std::uint32_t>(args.get_int("psi", 20));
  params.min_gap = static_cast<std::size_t>(args.get_int("min-gap", 25));

  auto forest = gst::build_forest_sequential(
      ests, static_cast<std::uint32_t>(args.get_int("window", 8)));
  auto candidates =
      analysis::detect_alternative_splicing(ests, forest, params);

  TablePrinter t({"EST A", "EST B", "orient", "gap", "in", "flanks",
                  "flank id"});
  for (const auto& c : candidates) {
    t.add_row({ests.est(c.a).id, ests.est(c.b).id, c.b_rc ? "rc" : "fwd",
               TablePrinter::fmt(static_cast<std::uint64_t>(c.gap_len)),
               c.gap_in_a ? "A" : "B",
               TablePrinter::fmt(static_cast<std::uint64_t>(c.left_flank)) +
                   "/" +
                   TablePrinter::fmt(
                       static_cast<std::uint64_t>(c.right_flank)),
               TablePrinter::fmt(c.flank_identity, 3)});
  }
  t.print(std::cout);
  std::cout << candidates.size()
            << " alternative-splicing candidate pair(s)\n";
  return 0;
}

int cmd_assemble(const CliArgs& args) {
  auto in = args.get("in");
  if (!in) return usage();
  bio::EstSet ests(bio::read_fasta_file(*in));
  auto cfg = cluster_config(args);

  auto res = pace::cluster_sequential(ests, cfg);
  auto contigs = assembly::assemble_clusters(ests, res.overlaps);

  std::vector<bio::Sequence> out_seqs;
  for (std::size_t c = 0; c < contigs.size(); ++c) {
    std::ostringstream id;
    id << "contig_" << c << " ests=" << contigs[c].num_ests()
       << " len=" << contigs[c].consensus.size();
    out_seqs.push_back({id.str(), contigs[c].consensus});
  }
  const std::string out = args.get_string("out", "contigs.fa");
  bio::write_fasta_file(out, out_seqs);
  std::cout << contigs.size() << " contigs from " << ests.num_ests()
            << " ESTs written to " << out << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  estclust::CliArgs args(argc - 1, argv + 1);
  try {
    if (cmd == "simulate") return cmd_simulate(args);
    if (cmd == "cluster") return cmd_cluster(args);
    if (cmd == "eval") return cmd_eval(args);
    if (cmd == "splice") return cmd_splice(args);
    if (cmd == "assemble") return cmd_assemble(args);
  } catch (const std::exception& e) {
    std::cerr << "estclust: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
