// Paper-flow benchmark program.  One process runs one workload for a fixed
// measuring time and prints, as its last stdout line, one JSON object:
//
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (README.md); with
// --trace 1 untraced and traced iterations alternate and the metrics are
// the per-layer ones taken from the traced iterations' spans.
//
//   flow_bench --workload W --seed N --seconds S --trace 0|1 --reference REF
//              [--work-dir DIR] [--spans PATH]
//   flow_bench --workload W --seed N --write-reference REF [--work-dir DIR]
//
// Every iteration builds its circuit, vector set and backends afresh
// (and, on adder4_flow_ckpt, a fresh journal directory), so backend
// caches start empty exactly as in one mtcmos_sizer invocation.  Every
// iteration's answer is checked bit for bit against the scalar path's
// answer in REF, which the second form computes; a mismatch fails every
// item of that iteration and its timings are discarded.

#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "flow.hpp"
#include "sizing/checkpoint.hpp"
#include "sizing/sizing.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using mtcmos::SweepReport;
using mtcmos::util::ThreadPool;
using sizing::EvalBackend;
using sizing::EvalSession;
using sizing::SpiceBackend;
using sizing::VbsBackend;
using sizing::VectorPair;

/// Session pool size: fixed so that runs on hosts with different core
/// counts measure the same load.
constexpr int kThreads = 2;
/// W/L of the sign-off workload (paper Section 6.2) and its vector split.
constexpr double kSignoffWl = 10.0;
constexpr std::size_t kSignoffWorst = 32;
constexpr std::size_t kSignoffSampled = 32;
/// Set-up is milliseconds long, so each run repeats it on its own for at
/// least this long (and kSetupReps times) before measuring, and setup_s
/// is the median over those and every iteration's set-up.
constexpr double kSetupSeconds = 0.5;
constexpr int kSetupReps = 10;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- set-up: circuit, vector set, backends ---------------------------------

/// Backends keep a reference to the circuit's netlist, so a Setup lives
/// at one address (make_setup returns it by unique_ptr).
struct Setup {
  explicit Setup(Circuit c) : circuit(std::move(c)) {}
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;

  Circuit circuit;
  std::vector<VectorPair> vectors;
  std::unique_ptr<VbsBackend> vbs;
  std::unique_ptr<SpiceBackend> spice;
  double build_s = 0.0;    ///< circuits::make_* only
  double vectors_s = 0.0;  ///< sizing::all_vector_pairs only
  double total_s = 0.0;    ///< build + vectors + backend construction
};

std::unique_ptr<Setup> make_setup(int adder_bits) {
  const auto t0 = std::chrono::steady_clock::now();
  auto s = std::make_unique<Setup>(make_adder(adder_bits));
  s->build_s = seconds_since(t0);
  const auto t1 = std::chrono::steady_clock::now();
  s->vectors = sizing::all_vector_pairs(2 * adder_bits);
  s->vectors_s = seconds_since(t1);
  s->vbs = std::make_unique<VbsBackend>(s->circuit.nl, s->circuit.outputs);
  s->spice = std::make_unique<SpiceBackend>(s->circuit.nl, s->circuit.outputs);
  s->total_s = seconds_since(t0);
  return s;
}

/// The backends one iteration calls: the Setup's own, or, when `log` is
/// given, the same backends wrapped in TracedBackend recording into it.
class Backends {
 public:
  Backends(const Setup& s, SpanLog* log) : fast_(s.vbs.get()), reference_(s.spice.get()) {
    if (log == nullptr) return;
    fast_ = &traced_vbs_.emplace(*s.vbs, *log);
    reference_ = &traced_spice_.emplace(*s.spice, *log);
  }
  const EvalBackend& fast() const { return *fast_; }
  const EvalBackend& reference() const { return *reference_; }

 private:
  std::optional<TracedBackend> traced_vbs_, traced_spice_;
  const EvalBackend* fast_;
  const EvalBackend* reference_;
};

// --- one iteration's measurements ------------------------------------------

/// Per-layer numbers of one traced iteration (see README.md).
using LayerMetrics = std::map<std::string, double>;

struct Iteration {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double resume_s = 0.0;
  double gap_pts = 0.0;  ///< reference-minus-fast degradation, binding vector
  std::size_t items = 0;
  std::size_t failed = 0;
  std::string wrong;  ///< non-empty when the answer check failed
  LayerMetrics layers;
  std::unique_ptr<SpanLog> spans;  ///< traced iterations only
};

// Span arithmetic: total length of the union of [t0, t1) intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur0 = 0.0, cur1 = -1.0;
  for (const auto& [a, b] : iv) {
    if (a > cur1) {
      if (cur1 > cur0) total += cur1 - cur0;
      cur0 = a;
      cur1 = b;
    } else {
      cur1 = std::max(cur1, b);
    }
  }
  if (cur1 > cur0) total += cur1 - cur0;
  return total;
}

/// Session and backend layer metrics from one traced flow.  Self time of
/// a session call is its span minus the union of its backend spans.
void add_span_metrics(const SpanLog& log, LayerMetrics& m) {
  const auto spans = log.spans();
  const auto& sessions = log.sessions();
  double wall = 0.0, self = 0.0, cov_all = 0.0, cov_vbs = 0.0, busy_all = 0.0;
  std::vector<std::vector<std::pair<double, double>>> all(sessions.size()), vbs(sessions.size());
  struct Acc {
    double calls = 0, items = 0, busy = 0;
  };
  std::map<std::string, Acc> acc;
  double probes = 0;
  for (const Span& s : spans) {
    const std::string layer = std::string(s.backend) + "." + op_name(s.op);
    Acc& a = acc[layer];
    a.calls += 1;
    a.items += static_cast<double>(s.items);
    a.busy += s.t1 - s.t0;
    if (s.op == Op::kPrepareWl) probes += 1;
    if (s.parent == 0) continue;
    busy_all += s.t1 - s.t0;
    const std::size_t k = s.parent - 1;
    const SessionSpan& p = sessions[k];
    const std::pair<double, double> iv{std::max(s.t0, p.t0), std::min(s.t1, p.t1)};
    all[k].push_back(iv);
    if (std::string(s.backend) == "vbs" && s.op != Op::kPrepareWl) vbs[k].push_back(iv);
  }
  for (std::size_t k = 0; k < sessions.size(); ++k) {
    const double w = sessions[k].t1 - sessions[k].t0;
    const double c = union_length(all[k]);
    wall += w;
    cov_all += c;
    self += w - c;
    cov_vbs += union_length(vbs[k]);
  }
  m["session.wall_s"] = wall;
  m["session.self_s"] = self;
  m["session.backend_coverage_s"] = cov_all;
  m["vbs.coverage_s"] = cov_vbs;
  m["session.probes"] = probes;
  m["pool.utilization"] = wall > 0.0 ? busy_all / (wall * kThreads) : 0.0;
  for (const char* layer : {"vbs.at_wl", "vbs.baseline"}) {
    const Acc& a = acc[layer];
    const std::string p = layer;
    m[p + ".calls"] = a.calls;
    m[p + ".items"] = a.items;
    m[p + ".busy_s"] = a.busy;
    m[p + ".us_per_item"] = a.items > 0 ? a.busy / a.items * 1e6 : 0.0;
  }
  m["vbs.prepare_wl.busy_s"] = acc["vbs.prepare_wl"].busy;
  m["spice.calls"] = acc["spice.baseline"].calls + acc["spice.at_wl"].calls;
  m["spice.busy_s"] = acc["spice.baseline"].busy + acc["spice.at_wl"].busy +
                      acc["spice.prepare_wl"].busy;
}

void add_backend_metrics(const VbsBackend& vbs, const SpiceBackend& spice,
                         const SweepReport& report, LayerMetrics& m) {
  const auto cs = vbs.cache_stats();
  const double lookups = static_cast<double>(cs.baseline_hits + cs.baseline_misses);
  m["vbs.baseline.hit_ratio"] = lookups > 0 ? static_cast<double>(cs.baseline_hits) / lookups : 0.0;
  m["vbs.sim.misses"] = static_cast<double>(cs.sim_misses);
  const auto es = spice.engine_stats();
  m["spice.newton_iters"] = static_cast<double>(es.newton_iters);
  m["spice.factorizations"] = static_cast<double>(es.factorizations);
  m["spice.device_evals"] = static_cast<double>(es.device_evals);
  const double evals = static_cast<double>(es.device_evals + es.bypass_hits);
  m["spice.bypass_hit_rate"] = evals > 0 ? static_cast<double>(es.bypass_hits) / evals : 0.0;
  m["session.items"] = static_cast<double>(report.total);
  m["session.items_per_probe"] =
      m["session.probes"] > 0 ? static_cast<double>(report.total) / m["session.probes"] : 0.0;
}

// --- workloads --------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// The scalar-path answer (EvalSession::batch = 1; for SPICE, one
  /// plain degradation_pct call per vector) as digest text.  It costs
  /// several flows, so a separate --write-reference invocation computes
  /// it and run.py caches it per build and seed.
  virtual std::string scalar_reference(ThreadPool& pool) = 0;
  /// One timed iteration; `traced` wraps each backend in a TracedBackend.
  /// Its answer is checked against `reference`.
  virtual Iteration iterate(ThreadPool& pool, bool traced, const std::string& reference) = 0;
  virtual int adder_bits() const = 0;
};

std::string mismatch(const std::string& got, const std::string& want) {
  return "answer\n" + got + "differs from the scalar path's\n" + want;
}

/// adder4_flow and adder4_flow_ckpt: the CLI's `builtin:adder4 --target 5
/// --verify`, optionally with `--checkpoint DIR` and then `--resume`.
class AdderFlow final : public Workload {
 public:
  AdderFlow(bool checkpoint, fs::path work_dir)
      : checkpoint_(checkpoint), work_dir_(std::move(work_dir)) {}

  int adder_bits() const override { return 4; }

  std::string scalar_reference(ThreadPool& pool) override {
    const auto sp = make_setup(adder_bits());
    const Setup& s = *sp;
    EvalSession session;
    session.pool = &pool;
    session.batch = 1;
    const FlowAnswer a = run_flow(*s.vbs, *s.spice, s.vectors, session);
    if (a.report.failed != 0 || !a.verify.ok) {
      throw std::runtime_error("scalar reference flow reported failures");
    }
    return digest(a);
  }

  Iteration iterate(ThreadPool& pool, bool traced, const std::string& reference) override {
    Iteration it;
    const auto sp = make_setup(adder_bits());
    const Setup& s = *sp;
    it.setup_s = s.total_s;
    if (traced) it.spans = std::make_unique<SpanLog>();
    const Backends b(s, it.spans.get());
    EvalSession session;
    session.pool = &pool;

    const fs::path dir = work_dir_ / "journal";
    const std::string journal = (dir / "journal.mtj").string();
    const auto t0 = std::chrono::steady_clock::now();
    std::optional<sizing::Checkpoint> ckpt;
    if (checkpoint_) {
      fs::remove_all(dir);
      fs::create_directories(dir);
      ckpt.emplace().open(journal);
      bind_meta(*ckpt);
      session.checkpoint = &*ckpt;
    }
    // Timed until the answer is in hand; closing the journal and freeing
    // its in-memory index happen after the CLI has printed the answer.
    const FlowAnswer fresh =
        run_flow(b.fast(), b.reference(), s.vectors, session, it.spans.get());
    it.wall_s = seconds_since(t0);
    ckpt.reset();
    it.items = fresh.report.total;
    it.failed = fresh.report.failed;
    it.gap_pts = fresh.verify.delta_pct;
    const std::string got = digest(fresh);
    if (got != reference) it.wrong = mismatch(got, reference);
    if (!fresh.verify.ok) it.wrong += "verification failed\n";

    if (traced) {
      add_span_metrics(*it.spans, it.layers);
      add_backend_metrics(*s.vbs, *s.spice, fresh.report, it.layers);
    }

    if (checkpoint_) {
      // --resume: a new process reopens the completed journal with cold
      // backends and replays the flow to the same answer.
      const auto rp = make_setup(adder_bits());
      const Setup& r = *rp;
      const auto t1 = std::chrono::steady_clock::now();
      ckpt.emplace().open(journal);
      const double reopen_s = seconds_since(t1);
      bind_meta(*ckpt);
      session.checkpoint = &*ckpt;
      const FlowAnswer replay = run_flow(*r.vbs, *r.spice, s.vectors, session);
      it.resume_s = seconds_since(t1);
      const double records = static_cast<double>(ckpt->journal().size());
      const double replayed = static_cast<double>(ckpt->journal().replayed_records());
      ckpt.reset();
      if (digest(replay) != got) it.wrong += "replayed " + mismatch(digest(replay), got);
      if (replay.report.failed != 0) it.wrong += "replay reported failures\n";
      const double bytes = static_cast<double>(fs::file_size(journal));
      it.layers["checkpoint.records"] = records;
      it.layers["checkpoint.bytes"] = bytes;
      it.layers["checkpoint.bytes_per_record"] = records > 0 ? bytes / records : 0.0;
      it.layers["checkpoint.reopen_s"] = reopen_s;
      it.layers["checkpoint.replayed_records"] = replayed;
      fs::remove_all(dir);
    } else {
      // Without a journal, resuming a finished run means recomputing it.
      it.resume_s = it.wall_s;
    }
    return it;
  }

 private:
  void bind_meta(sizing::Checkpoint& ckpt) const {
    // The CLI's run-configuration guard (mtcmos_sizer --checkpoint).
    ckpt.bind_meta("circuit", "builtin:adder4");
    ckpt.bind_meta("backend", "vbs");
    ckpt.bind_meta("target", std::to_string(kTargetPct));
  }

  bool checkpoint_;
  fs::path work_dir_;
};

/// adder3_spice_signoff: the paper's Section 6.2 check.  VBS ranks all
/// 4096 transitions at W/L 10; SPICE re-ranks the 32 VBS-worst plus 32
/// drawn from the seed.
class SpiceSignoff final : public Workload {
 public:
  explicit SpiceSignoff(std::uint64_t seed) : seed_(seed) {}

  int adder_bits() const override { return 3; }

  std::string scalar_reference(ThreadPool& pool) override {
    const auto sp = make_setup(adder_bits());
    const Setup& s = *sp;
    EvalSession session;
    session.pool = &pool;
    session.batch = 1;
    const auto ranked = sizing::rank_vectors(*s.vbs, s.vectors, kSignoffWl, session);
    // One plain degradation_pct call per transition, outside the session
    // layer; the answer is the worst degradation and every transition
    // that reaches it (ties occur: the adder is symmetric).
    const auto set = signoff_set(ranked, s.vectors);
    const auto deg = pool.parallel_map(
        set.size(), [&](std::size_t i) { return s.spice->degradation_pct(set[i], kSignoffWl); });
    double worst_pct = -1.0;
    std::set<std::string> worst;
    for (std::size_t i = 0; i < set.size(); ++i) {
      if (deg[i] < 0.0 || deg[i] < worst_pct) continue;
      if (deg[i] > worst_pct) worst.clear();
      worst_pct = deg[i];
      worst.insert(pair_str(set[i]));
    }
    if (worst.empty()) throw std::runtime_error("no sign-off transition switches on SPICE");
    return signoff_digest(worst_pct, worst);
  }

  Iteration iterate(ThreadPool& pool, bool traced, const std::string& reference) override {
    Iteration it;
    const auto sp = make_setup(adder_bits());
    const Setup& s = *sp;
    it.setup_s = s.total_s;
    if (traced) it.spans = std::make_unique<SpanLog>();
    const Backends b(s, it.spans.get());
    SweepReport report;
    EvalSession session;
    session.pool = &pool;
    session.report = &report;

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<sizing::VectorDelay> vbs_ranked, spice_ranked;
    session_call(it.spans.get(), "rank_vectors", [&] {
      vbs_ranked = sizing::rank_vectors(b.fast(), s.vectors, kSignoffWl, session);
    });
    const auto set = signoff_set(vbs_ranked, s.vectors);
    session_call(it.spans.get(), "rank_vectors", [&] {
      spice_ranked = sizing::rank_vectors(b.reference(), set, kSignoffWl, session);
    });
    it.wall_s = seconds_since(t0);
    it.resume_s = it.wall_s;  // no journal: a resume recomputes
    it.items = report.total;
    it.failed = report.failed;

    if (vbs_ranked.empty() || spice_ranked.empty()) {
      it.wrong = "a ranking is empty\n";
    } else {
      const double worst_pct = spice_ranked.front().degradation_pct;
      std::set<std::string> worst;
      for (const auto& row : spice_ranked) {
        if (row.degradation_pct == worst_pct) worst.insert(pair_str(row.pair));
      }
      const std::string got = signoff_digest(worst_pct, worst);
      if (got != reference) it.wrong = mismatch(got, reference);
      // The gap is taken on VBS's worst transition, the one a VBS sizing
      // would bind on, so it does not depend on the seeded half.
      const std::string binding = pair_str(vbs_ranked.front().pair);
      const auto ref_row = std::find_if(spice_ranked.begin(), spice_ranked.end(),
                                        [&](const auto& r) { return pair_str(r.pair) == binding; });
      if (ref_row == spice_ranked.end()) {
        it.wrong += "VBS-worst transition does not switch on SPICE\n";
      } else {
        it.gap_pts = ref_row->degradation_pct - vbs_ranked.front().degradation_pct;
      }
    }
    if (traced) {
      add_span_metrics(*it.spans, it.layers);
      add_backend_metrics(*s.vbs, *s.spice, report, it.layers);
    }
    return it;
  }

 private:
  /// The 32 VBS-worst transitions, then 32 distinct others drawn from the
  /// seed (the only seeded input of the benchmark).
  std::vector<VectorPair> signoff_set(const std::vector<sizing::VectorDelay>& ranked,
                                      const std::vector<VectorPair>& all) const {
    std::vector<VectorPair> set;
    std::set<std::string> taken;
    for (std::size_t i = 0; i < ranked.size() && set.size() < kSignoffWorst; ++i) {
      set.push_back(ranked[i].pair);
      taken.insert(pair_str(ranked[i].pair));
    }
    mtcmos::Rng rng(seed_);
    while (set.size() < kSignoffWorst + kSignoffSampled) {
      const VectorPair& vp = all[rng.uniform_int(0, all.size() - 1)];
      if (taken.insert(pair_str(vp)).second) set.push_back(vp);
    }
    return set;
  }

  static std::string signoff_digest(double pct, const std::set<std::string>& worst) {
    std::string d = "spice worst degradation " + exact(pct) + " on";
    for (const auto& p : worst) d += " " + p;
    return d + "\n";
  }

  std::uint64_t seed_;
};

// --- host provenance --------------------------------------------------------

/// Parallelism the session pool actually gets: one fixed CPU-bound task
/// alone, then kThreads copies at once; 1.0 = fully serialized,
/// kThreads = perfect.
double calibrate_parallelism(ThreadPool& pool) {
  const std::size_t n = static_cast<std::size_t>(pool.thread_count());
  std::vector<std::uint64_t> out(n);  // one slot per task, so no two threads share a write
  const auto spin = [&](std::size_t slot) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL + slot;
    for (int i = 0; i < 30'000'000; ++i) x ^= x << 13, x ^= x >> 7, x ^= x << 17;
    out[slot] = x;
  };
  // Best of three for each leg, so one preempted leg does not skew it.
  double one = 1e30, all = 1e30;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    spin(0);
    one = std::min(one, seconds_since(t0));
    t0 = std::chrono::steady_clock::now();
    pool.parallel_for(n, spin);
    all = std::min(all, seconds_since(t0));
  }
  return static_cast<double>(n) * one / all;
}

std::string fs_type(const fs::path& dir) {
  struct statfs st {};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x2FC12FC1: return "zfs";
    default: {
      std::ostringstream os;
      os << "0x" << std::hex << static_cast<unsigned long>(st.f_type);
      return os.str();
    }
  }
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --- output -----------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// Every per-layer metric, in README.md order, with its unit.  A layer a
/// workload does not exercise reports 0.
const std::vector<std::pair<std::string, std::string>>& layer_units() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"circuits.build_s", "s"},
      {"sizing.vectors_s", "s"},
      {"session.wall_s", "s"},
      {"session.self_s", "s"},
      {"session.backend_coverage_s", "s"},
      {"session.items", "count"},
      {"session.probes", "count"},
      {"session.items_per_probe", "count"},
      {"vbs.coverage_s", "s"},
      {"vbs.at_wl.calls", "count"},
      {"vbs.at_wl.items", "count"},
      {"vbs.at_wl.busy_s", "s"},
      {"vbs.at_wl.us_per_item", "us"},
      {"vbs.baseline.calls", "count"},
      {"vbs.baseline.items", "count"},
      {"vbs.baseline.busy_s", "s"},
      {"vbs.baseline.us_per_item", "us"},
      {"vbs.baseline.hit_ratio", "ratio"},
      {"vbs.sim.misses", "count"},
      {"vbs.prepare_wl.busy_s", "s"},
      {"pool.utilization", "ratio"},
      {"spice.calls", "count"},
      {"spice.busy_s", "s"},
      {"spice.newton_iters", "count"},
      {"spice.factorizations", "count"},
      {"spice.device_evals", "count"},
      {"spice.bypass_hit_rate", "ratio"},
      {"checkpoint.records", "count"},
      {"checkpoint.bytes", "bytes"},
      {"checkpoint.bytes_per_record", "bytes"},
      {"checkpoint.reopen_s", "s"},
      {"checkpoint.replayed_records", "count"},
      {"trace.overhead_pct", "%"},
  };
  return units;
}

void write_spans(const fs::path& path, const std::vector<Iteration>& traced) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write spans to " + path.string());
  os << "{\"iterations\": [\n";
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const SpanLog& log = *traced[i].spans;
    os << (i ? ",\n" : "") << "{\"sessions\": [";
    const auto& ss = log.sessions();
    for (std::size_t k = 0; k < ss.size(); ++k) {
      os << (k ? ", " : "") << "{\"id\": " << k + 1 << ", \"op\": \"" << ss[k].op
         << "\", \"t0\": " << num(ss[k].t0) << ", \"t1\": " << num(ss[k].t1) << "}";
    }
    os << "],\n \"spans\": [";
    const auto spans = log.spans();
    for (std::size_t k = 0; k < spans.size(); ++k) {
      const Span& s = spans[k];
      os << (k ? ",\n  " : "\n  ") << "{\"layer\": \"" << s.backend << "."
         << op_name(s.op) << "\", \"parent\": " << s.parent
         << ", \"t0\": " << num(s.t0) << ", \"t1\": " << num(s.t1) << ", \"items\": " << s.items
         << "}";
    }
    os << "]}";
  }
  os << "\n]}\n";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  fs::path spans;
  fs::path work_dir = ".";
  fs::path reference;        ///< scalar-path answer to check against
  fs::path write_reference;  ///< compute that answer, write it, exit
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::stoull(v);
    } else if (arg == "--seconds") {
      a.seconds = std::stod(v);
    } else if (arg == "--trace") {
      a.trace = v == "1";
    } else if (arg == "--spans") {
      a.spans = v;
    } else if (arg == "--work-dir") {
      a.work_dir = v;
    } else if (arg == "--reference") {
      a.reference = v;
    } else if (arg == "--write-reference") {
      a.write_reference = v;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  if (a.reference.empty() == a.write_reference.empty()) {
    throw std::invalid_argument("give exactly one of --reference and --write-reference");
  }
  return a;
}

int run(const Args& args) {
  std::unique_ptr<Workload> w;
  if (args.workload == "adder4_flow") {
    w = std::make_unique<AdderFlow>(false, args.work_dir);
  } else if (args.workload == "adder4_flow_ckpt") {
    w = std::make_unique<AdderFlow>(true, args.work_dir);
  } else if (args.workload == "adder3_spice_signoff") {
    w = std::make_unique<SpiceSignoff>(args.seed);
  } else {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  fs::create_directories(args.work_dir);
  ThreadPool pool(kThreads);

  if (!args.write_reference.empty()) {
    const std::string ref = w->scalar_reference(pool);
    std::ofstream os(args.write_reference);
    os << ref;
    if (!os.flush()) throw std::runtime_error("cannot write " + args.write_reference.string());
    std::cout << "scalar-path reference for " << args.workload << ":\n" << ref;
    return 0;
  }
  std::ifstream is(args.reference);
  const std::string reference((std::istreambuf_iterator<char>(is)),
                              std::istreambuf_iterator<char>());
  if (!is || reference.empty()) {
    throw std::runtime_error("cannot read reference " + args.reference.string());
  }

  const double parallelism = calibrate_parallelism(pool);
  std::cout << "{\"provenance\": {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"pool_threads\": " << pool.thread_count() << ", \"simd_isa\": \""
            << mtcmos::bench::simd_isa() << "\", \"march_native\": "
#ifdef MTCMOS_NATIVE_BUILD
            << "true"
#else
            << "false"
#endif
            << ", \"journal_fs\": \"" << fs_type(args.work_dir)
            << "\", \"calibrated_parallelism\": " << num(parallelism) << "}}" << std::endl;

  std::vector<double> setup_s, build_s, vectors_s;
  const auto setup_t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kSetupReps || seconds_since(setup_t0) < kSetupSeconds; ++i) {
    const auto s = make_setup(w->adder_bits());
    setup_s.push_back(s->total_s);
    build_s.push_back(s->build_s);
    vectors_s.push_back(s->vectors_s);
  }

  // Measure: whole iterations while the next is predicted to end within
  // --seconds (at least one).  With --trace 1 an untimed warm-up comes
  // first (a process's first iteration runs slower, on fresh heap pages),
  // then untraced and traced iterations alternate, at least one of each,
  // so trace.overhead_pct compares like with like.  Only iterations with
  // the right answer contribute timings.
  std::vector<Iteration> plain, traced;
  std::size_t attempted = 0, failed = 0;
  std::vector<std::string> wrong;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t n = 0;; ++n) {
    const bool warmup = args.trace && n == 0;
    const bool tracing_turn = args.trace && n > 0 && n % 2 == 0;
    const auto t_it = std::chrono::steady_clock::now();
    Iteration it = w->iterate(pool, tracing_turn, reference);
    const double took = seconds_since(t_it);
    attempted += it.items;
    if (!warmup) setup_s.push_back(it.setup_s);
    if (!it.wrong.empty()) {
      failed += it.items;  // a wrong answer fails the whole iteration
      wrong.push_back(it.wrong);
    } else {
      failed += it.failed;
      if (!warmup) (tracing_turn ? traced : plain).push_back(std::move(it));
    }
    const bool need_traced = args.trace && n < 2;
    if (!need_traced && seconds_since(t0) + took > args.seconds) break;
  }
  const bool correct = wrong.empty() && failed == 0;
  for (const auto& why : wrong) std::cerr << "wrong answer: " << why << "\n";

  std::vector<Metric> metrics;
  const auto med = [](const std::vector<Iteration>& its, auto field) {
    std::vector<double> v;
    for (const auto& it : its) v.push_back(field(it));
    return median(v);
  };
  const double wall = med(plain, [](const Iteration& it) { return it.wall_s; });
  if (!args.trace) {
    const double items = med(plain, [](const Iteration& it) { return double(it.items); });
    metrics = {
        {"wall_s", "s", wall},
        {"resume_s", "s", med(plain, [](const Iteration& it) { return it.resume_s; })},
        {"items_per_s", "1/s", wall > 0 ? items / wall : 0.0},
        {"setup_s", "s", median(setup_s)},
        {"peak_rss_mb", "MB", peak_rss_mb()},
        {"pass_ratio", "ratio",
         attempted > 0 ? 1.0 - static_cast<double>(failed) / static_cast<double>(attempted)
                       : 0.0},
        {"spice_gap_pts", "pts", plain.empty() ? 0.0 : plain.front().gap_pts},
    };
  } else {
    LayerMetrics m;
    for (const auto& [name, unit] : layer_units()) {
      (void)unit;
      std::vector<double> v;
      for (const auto& it : traced) {
        const auto f = it.layers.find(name);
        v.push_back(f == it.layers.end() ? 0.0 : f->second);
      }
      m[name] = median(v);
    }
    m["circuits.build_s"] = median(build_s);
    m["sizing.vectors_s"] = median(vectors_s);
    const double traced_wall = med(traced, [](const Iteration& it) { return it.wall_s; });
    m["trace.overhead_pct"] = wall > 0 ? (traced_wall - wall) / wall * 100.0 : 0.0;
    for (const auto& [name, unit] : layer_units()) metrics.push_back({name, unit, m[name]});
    std::cout << "session wall " << num(m["session.wall_s"]) << " s = self "
              << num(m["session.self_s"]) << " s + VBS delay spans " << num(m["vbs.coverage_s"])
              << " s + other backend spans "
              << num(m["session.backend_coverage_s"] - m["vbs.coverage_s"]) << " s\n";
    if (!args.spans.empty()) write_spans(args.spans, traced);
  }

  std::cout << "workload " << args.workload << ", seed " << args.seed << ": " << plain.size()
            << " untraced + " << traced.size() << " traced iterations"
            << (args.trace ? " after a warm-up" : "") << " in "
            << num(seconds_since(t0)) << " s; " << setup_s.size() << " set-ups\n";
  for (const auto* its : {&plain, &traced}) {
    if (its->empty()) continue;
    std::cout << (its == &plain ? "  untraced" : "  traced") << " iteration wall_s:";
    for (const auto& it : *its) std::cout << " " << num(it.wall_s);
    std::cout << "\n";
  }
  for (const auto& m : metrics) {
    std::cout << "  " << m.name << " = " << num(m.value) << " " << m.unit << "\n";
  }
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << num(metrics[i].value)
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "flow_bench: " << e.what() << "\n";
    return 1;
  }
}
