// perfbench_probe — the benchmark's layer probe. It drives the library's
// public layer APIs from outside, times each call with steady_clock, and
// prints one JSON object on stdout. Nothing here changes what the program
// computes; run.py compares every result against the shipped CLI.
//
//   perfbench_probe exec   --stdout OUT --timeout-s T -- PROGRAM ARGS...
//       Runs PROGRAM to completion with its stdout in OUT and reports its
//       wall time (fork to reaped exit), exit status and peak RSS
//       (wait4's ru_maxrss). The child is forked from this small image, not
//       from the Python driver, so the high-water mark it inherits at exec
//       is this launcher's ~1 MiB instead of the driver's ~15 MiB. Killed
//       with SIGKILL after T seconds.
//   perfbench_probe load   --in lib.fa --reps N
//       Loads the library N times (bio::read_fasta_file + EstSet) and
//       reports each load's wall time: the benchmark's setup_s.
//   perfbench_probe replay --in lib.fa --pair-source B --min-overlap M
//                          --partition OUT --spans OUT.json
//       Replays pace::cluster_sequential step by step (load, GST build,
//       pair-source construction, stream drain, union-find + alignment),
//       records a span around every layer call and peak RSS after every
//       stage. Writes the canonical partition to --partition.
//   perfbench_probe ranks  --in lib.fa --min-overlap M --partition OUT
//       Times each rank's call into gst::build_forest_parallel and then
//       pace::cluster_parallel (gst pair source) on 4-rank mpr runtimes,
//       and reads the runtime's merged metrics and per-rank virtual times.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "align/dispatch.hpp"
#include "bio/dataset.hpp"
#include "bio/fasta.hpp"
#include "cluster/partition.hpp"
#include "cluster/union_find.hpp"
#include "gst/builder.hpp"
#include "gst/parallel.hpp"
#include "mpr/runtime.hpp"
#include "pace/aligner.hpp"
#include "pace/parallel.hpp"
#include "pairgen/source.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace {

using namespace estclust;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process peak resident set so far, MiB. VmHWM is this image's own high
/// water mark; getrusage's ru_maxrss would also count the launching
/// process's resident set at exec, which hides small early stages.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Flat JSON object writer; doubles at full precision.
class JsonOut {
 public:
  void num(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    add(k, buf);
  }
  void num(const std::string& k, std::uint64_t v) {
    add(k, std::to_string(v));
  }
  void str(const std::string& k, const std::string& v) {
    add(k, "\"" + v + "\"");
  }
  void list(const std::string& k, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", v[i]);
      s += buf;
    }
    add(k, s + "]");
  }
  void print() const { std::cout << "{" << body_ << "}\n"; }

 private:
  void add(const std::string& k, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + k + "\": " + v;
  }
  std::string body_;
};

/// One recorded span. An aggregate span (`calls` > 1) stands for that many
/// calls made inside its parent batch; `dur` is their summed time.
struct Span {
  std::string name;
  double start = 0.0;
  double dur = 0.0;
  int parent = -1;
  std::uint64_t calls = 1;
};

/// In-memory span store, written once at exit.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  int open(const std::string& name, int parent) {
    spans_.push_back({name, seconds_since(origin_), 0.0, parent, 1});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) {
    spans_[id].dur = seconds_since(origin_) - spans_[id].start;
  }
  double duration(int id) const { return spans_[id].dur; }
  double now() const { return seconds_since(origin_); }
  void aggregate(const std::string& name, int parent, double start,
                 double total, std::uint64_t calls) {
    if (calls > 0) spans_.push_back({name, start, total, parent, calls});
  }

  /// Sum of durations of spans called `name`.
  double total(const std::string& name) const {
    double s = 0.0;
    for (const auto& sp : spans_) {
      if (sp.name == name) s += sp.dur;
    }
    return s;
  }

  void write(const std::string& path) const {
    std::ofstream os(path);
    ESTCLUST_CHECK_MSG(os.good(), "cannot open " << path);
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                    "\"dur_s\": %.9f, \"parent\": %d, \"calls\": %llu}%s\n",
                    i, s.name.c_str(), s.start, s.dur, s.parent,
                    static_cast<unsigned long long>(s.calls),
                    i + 1 < spans_.size() ? "," : "");
      os << buf;
    }
    os << "]\n";
  }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// The value of a required option; a missing one is an error.
std::string required(const CliArgs& args, const std::string& name) {
  const auto v = args.get(name);
  ESTCLUST_CHECK_MSG(v.has_value(), "--" << name << " is required");
  return *v;
}

/// The clustering knobs `estclust cluster` uses by default, with the
/// workload's minimum overlap and the given pair source.
pace::PaceConfig cli_config(const CliArgs& args, pairgen::Backend backend) {
  pace::PaceConfig cfg;
  cfg.psi = 20;
  cfg.gst.window = 8;
  cfg.batchsize = 60;
  cfg.overlap.min_quality = 0.8;
  cfg.overlap.min_overlap =
      static_cast<std::size_t>(std::stoll(required(args, "min-overlap")));
  cfg.overlap.band = 8;
  cfg.pair_source = backend;
  return cfg;
}

void write_text(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  ESTCLUST_CHECK_MSG(os.good(), "cannot open " << path);
  os << text;
}

/// The child cmd_exec waits for; the SIGALRM handler kills it on timeout.
volatile sig_atomic_t g_child = 0;

void kill_child(int) {
  if (g_child > 0) kill(g_child, SIGKILL);
}

/// argv: "exec" --stdout OUT --timeout-s T -- PROGRAM ARGS...
int cmd_exec(int argc, char** argv) {
  std::string out_path;
  double timeout_s = 0.0;
  int i = 1;
  for (; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--") {
      ++i;
      break;
    }
    ESTCLUST_CHECK_MSG(i + 1 < argc, a << " needs a value");
    if (a == "--stdout") {
      out_path = argv[++i];
    } else if (a == "--timeout-s") {
      timeout_s = std::stod(argv[++i]);
    } else {
      ESTCLUST_CHECK_MSG(false, "unknown exec option " << a);
    }
  }
  ESTCLUST_CHECK_MSG(!out_path.empty() && timeout_s > 0.0 && i < argc,
                     "usage: exec --stdout OUT --timeout-s T -- PROGRAM ...");
  const int fd =
      open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  ESTCLUST_CHECK_MSG(fd >= 0, "cannot open " << out_path);

  struct sigaction sa {};
  sa.sa_handler = kill_child;  // no SA_RESTART: wait4 returns EINTR
  sigaction(SIGALRM, &sa, nullptr);
  const pid_t parent = getpid();
  const auto t0 = Clock::now();
  const pid_t pid = fork();
  ESTCLUST_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    // Dies with the launcher, so a killed launcher leaves nothing behind.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fd, STDOUT_FILENO);
    execvp(argv[i], argv + i);
    _exit(127);
  }
  g_child = pid;
  itimerval timer{};
  timer.it_value.tv_sec = static_cast<time_t>(timeout_s);
  timer.it_value.tv_usec = static_cast<suseconds_t>(
      (timeout_s - std::floor(timeout_s)) * 1e6);
  setitimer(ITIMER_REAL, &timer, nullptr);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    ESTCLUST_CHECK_MSG(errno == EINTR, "wait4 failed");
  }
  const double wall = seconds_since(t0);
  timer = itimerval{};
  setitimer(ITIMER_REAL, &timer, nullptr);
  g_child = 0;
  close(fd);

  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : -WTERMSIG(status);
  JsonOut out;
  out.num("wall_s", wall);
  out.num("maxrss_kib", static_cast<std::uint64_t>(ru.ru_maxrss));
  out.num("exit_code", static_cast<double>(code));
  out.print();
  return 0;
}

int cmd_load(const CliArgs& args) {
  const std::string in = required(args, "in");
  const int reps = std::stoi(required(args, "reps"));
  ESTCLUST_CHECK_MSG(reps >= 1, "--reps must be >= 1");
  std::vector<double> times;
  std::size_t chars = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    bio::EstSet ests(bio::read_fasta_file(in));
    times.push_back(seconds_since(t0));
    chars = ests.total_est_chars();
  }
  JsonOut out;
  out.list("load_s", times);
  out.num("input_mbp", static_cast<double>(chars) / 1e6);
  // The variant the CLI's alignments dispatch to in this environment.
  out.str("kernel_variant", align::to_string(align::active_kernel()));
  out.print();
  return 0;
}

int cmd_replay(const CliArgs& args) {
  const auto backend = pairgen::parse_backend(required(args, "pair-source"));
  ESTCLUST_CHECK_MSG(backend.has_value(),
                     "--pair-source must be gst, kmer or fm");
  const auto cfg = cli_config(args, *backend);
  cfg.validate();
  SpanLog log;
  JsonOut out;
  const int root = log.open("replay", -1);

  int sp = log.open("bio.load", root);
  bio::EstSet ests(bio::read_fasta_file(required(args, "in")));
  log.close(sp);
  out.num("bio.load_s", log.duration(sp));
  out.num("bio.input_mbp", static_cast<double>(ests.total_est_chars()) / 1e6);
  out.num("mem.peak_after_load_mb", peak_rss_mib());

  gst::BuildCounters bc;
  sp = log.open("gst.build", root);
  auto forest = gst::build_forest_sequential(ests, cfg.gst.window, &bc);
  log.close(sp);
  std::uint64_t forest_bytes = 0;
  for (const auto& t : forest) forest_bytes += t.storage_bytes();
  out.num("gst.build_s", log.duration(sp));
  out.num("gst.chars_scanned", bc.chars_scanned);
  out.num("gst.nodes", bc.nodes);
  out.num("gst.forest_mb", static_cast<double>(forest_bytes) / (1 << 20));
  out.num("mem.peak_after_gst_mb", peak_rss_mib());

  sp = log.open("pairgen.construct", root);
  auto gen = pairgen::make_pair_source(cfg.pair_source, ests, forest,
                                       cfg.gst.window, cfg.psi);
  log.close(sp);
  out.num("pairgen.construct_s", log.duration(sp));
  out.num("pairgen.construction_units", gen->construction_sort_units());
  out.num("pairgen.index_mb",
          static_cast<double>(gen->index_bytes()) / (1 << 20));
  out.num("mem.peak_after_construct_mb", peak_rss_mib());

  // The body of cluster_sequential's on-demand loop, one batch at a time.
  // Union-find and alignment calls are too many for a span each, so each
  // batch records one aggregate span per layer.
  cluster::UnionFind uf(ests.num_ests());
  pace::PairAligner aligner(ests, cfg);
  std::uint64_t skipped = 0, processed = 0, accepted = 0, cells = 0;
  std::vector<pairgen::PromisingPair> batch;
  const int stream = log.open("pace.stream", root);
  for (;;) {
    const int b = log.open("pace.batch", stream);
    const int next = log.open("pairgen.next_batch", b);
    const std::size_t got = gen->next_batch(cfg.batchsize, batch);
    log.close(next);
    if (got == 0) {
      log.close(b);
      break;
    }
    const double batch_start = log.now();
    double uf_s = 0.0, align_s = 0.0;
    std::uint64_t uf_calls = 0, align_calls = 0;
    for (const auto& p : batch) {
      auto t0 = Clock::now();
      const bool same = uf.same(p.a, p.b);
      uf_s += seconds_since(t0);
      ++uf_calls;
      if (same) {
        ++skipped;
        continue;
      }
      t0 = Clock::now();
      const pace::PairEvaluation ev = aligner.evaluate(p);
      align_s += seconds_since(t0);
      ++align_calls;
      ++processed;
      cells += ev.overlap.cells;
      if (ev.accepted) {
        ++accepted;
        t0 = Clock::now();
        uf.unite(p.a, p.b);
        uf_s += seconds_since(t0);
        ++uf_calls;
      }
    }
    log.aggregate("cluster.uf", b, batch_start, uf_s, uf_calls);
    log.aggregate("align.evaluate", b, batch_start, align_s, align_calls);
    batch.clear();
    log.close(b);
  }
  log.close(stream);
  log.close(root);
  out.num("mem.peak_after_stream_mb", peak_rss_mib());

  const auto& gs = gen->stats();
  const auto& ms = aligner.memo_stats();
  const double evaluate_s = log.total("align.evaluate");
  out.num("pairgen.stream_s", log.total("pairgen.next_batch"));
  out.num("pairgen.pairs_emitted", gs.pairs_emitted);
  out.num("pairgen.lset_work", gs.lset_work);
  out.num("pairgen.nodes_processed", gs.nodes_processed);
  out.num("align.evaluate_s", evaluate_s);
  out.num("align.calls", processed);
  out.num("align.accepted", accepted);
  out.num("align.dp_cells", cells);
  out.num("align.memo_lookups", ms.lookups);
  out.num("align.memo_hits", ms.hits);
  out.num("cluster.uf_s", log.total("cluster.uf"));
  out.num("cluster.uf_ops", uf.operations());
  out.num("cluster.skipped", skipped);
  out.num("replay_s", log.duration(root));
  out.str("kernel_variant", align::to_string(align::active_kernel()));
  out.print();

  write_text(required(args, "partition"),
             cluster::canonical_partition(uf.labels()));
  log.write(required(args, "spans"));
  return 0;
}

/// Per-rank wall seconds of one collective call on a fresh P-rank runtime.
template <typename Fn>
std::vector<double> time_ranks(mpr::Runtime& rt, Fn&& body) {
  std::vector<double> wall(static_cast<std::size_t>(rt.size()), 0.0);
  rt.run([&](mpr::Communicator& comm) {
    const auto t0 = Clock::now();
    body(comm);
    wall[static_cast<std::size_t>(comm.rank())] = seconds_since(t0);
  });
  return wall;
}

/// Ranks of the parallel legs: the benchmark's `--ranks 4`.
constexpr int kRanks = 4;

int cmd_ranks(const CliArgs& args) {
  const auto cfg = cli_config(args, pairgen::Backend::kGst);
  cfg.validate();
  bio::EstSet ests(bio::read_fasta_file(required(args, "in")));
  JsonOut out;

  // The GST phase on its own, with the master/slave driver's ownership
  // (rank 0 owns no bucket but joins every collective).
  {
    mpr::Runtime rt(kRanks, mpr::CostModel{});
    const auto wall = time_ranks(rt, [&](mpr::Communicator& comm) {
      gst::build_forest_parallel(comm, ests, cfg.gst, nullptr,
                                 /*first_owner_rank=*/1);
    });
    out.num("gst.par_build_s.max", *std::max_element(wall.begin(), wall.end()));
    out.num("gst.par_build_s.min", *std::min_element(wall.begin(), wall.end()));
  }

  mpr::Runtime rt(kRanks, mpr::CostModel{});
  std::mutex mu;
  pace::ParallelResult master_res;
  const auto wall = time_ranks(rt, [&](mpr::Communicator& comm) {
    auto res = pace::cluster_parallel(comm, ests, cfg);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      master_res = std::move(res);
    }
  });
  const auto slaves = std::minmax_element(wall.begin() + 1, wall.end());
  out.num("pace.rank_wall_s.master", wall[0]);
  out.num("pace.rank_wall_s.slave_max", *slaves.second);
  out.num("pace.rank_wall_s.slave_min", *slaves.first);
  out.num("pace.pairs_generated", master_res.stats.pairs_generated);
  out.num("pace.pairs_processed", master_res.stats.pairs_processed);
  out.num("pace.model_t_total_vs", master_res.stats.t_total);

  const auto merged = rt.merged_metrics();
  for (const char* name : {"pace.master_interactions", "mpr.messages_sent",
                           "mpr.bytes_sent"}) {
    out.num(name, merged.counter_value(name));
  }
  std::string variant = "none";
  for (const char* v : {"scalar", "sse2", "avx2"}) {
    const std::string key = std::string("kernel.variant.") + v;
    if (merged.has_counter(key) && merged.counter_value(key) > 0) variant = v;
  }
  out.str("kernel_variant", variant);
  double idle_max = 0.0;
  for (const auto& rt_time : rt.rank_times()) {
    idle_max = std::max(idle_max, rt_time.idle);
  }
  out.num("mpr.idle_vs.max", idle_max);
  out.print();

  write_text(required(args, "partition"),
             cluster::canonical_partition(master_res.labels));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfbench_probe <exec|load|replay|ranks> [options]\n";
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "exec") return cmd_exec(argc - 1, argv + 1);
    const CliArgs args(argc - 1, argv + 1);
    if (cmd == "load") return cmd_load(args);
    if (cmd == "replay") return cmd_replay(args);
    if (cmd == "ranks") return cmd_ranks(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_probe: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "perfbench_probe: unknown command '" << cmd << "'\n";
  return 2;
}
