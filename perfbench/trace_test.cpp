// Decorator transparency test: the same checkpointed flow run through
// bare backends and through TracedBackend must give the same SizingResult
// bits, the same verification and the same journal records, and the
// traced run must have recorded spans under every session call.
//
//   trace_test        exit 0 = pass, 1 = fail (reasons on stderr)

#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "flow.hpp"
#include "sizing/checkpoint.hpp"
#include "sizing/sizing.hpp"
#include "util/thread_pool.hpp"

namespace {

namespace fs = std::filesystem;
using namespace perfbench;

struct Run {
  FlowAnswer answer;
  std::map<std::string, std::string> records;
};

Run run_checkpointed(const Circuit& c, const fs::path& journal, SpanLog* log,
                     mtcmos::util::ThreadPool& pool) {
  const auto vectors = sizing::all_vector_pairs(static_cast<int>(c.nl.inputs().size()));
  const sizing::VbsBackend vbs(c.nl, c.outputs);
  const sizing::SpiceBackend spice(c.nl, c.outputs);
  fs::remove(journal);
  sizing::Checkpoint ckpt;
  ckpt.open(journal.string());
  sizing::EvalSession session;
  session.pool = &pool;
  session.checkpoint = &ckpt;
  Run r;
  if (log != nullptr) {
    const TracedBackend tvbs(vbs, *log), tspice(spice, *log);
    r.answer = run_flow(tvbs, tspice, vectors, session, log);
  } else {
    r.answer = run_flow(vbs, spice, vectors, session);
  }
  ckpt.journal().for_each(
      [&](const std::string& k, const std::string& v) { r.records.emplace(k, v); });
  ckpt.journal().close();
  return r;
}

}  // namespace

int main() {
  int failures = 0;
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "FAIL: " << what << "\n";
      ++failures;
    }
  };
  try {
    const fs::path dir = fs::temp_directory_path() / ("perfbench_trace_test_" +
                                                      std::to_string(::getpid()));
    fs::create_directories(dir);
    mtcmos::util::ThreadPool pool(2);
    const Circuit c = make_adder(3);
    const Run bare = run_checkpointed(c, dir / "bare.mtj", nullptr, pool);
    SpanLog log;
    const Run traced = run_checkpointed(c, dir / "traced.mtj", &log, pool);
    fs::remove_all(dir);

    check(bare.answer.report.failed == 0 && bare.answer.verify.ok, "bare flow is clean");
    check(digest(bare.answer) == digest(traced.answer),
          "traced answer\n" + digest(traced.answer) + "differs from\n" + digest(bare.answer));
    check(bare.answer.report.total == traced.answer.report.total, "same item count");
    check(!bare.records.empty() && bare.records == traced.records,
          "same journal records (" + std::to_string(bare.records.size()) + " vs " +
              std::to_string(traced.records.size()) + ")");

    const auto spans = log.spans();
    const auto& sessions = log.sessions();
    check(sessions.size() == kWlTable.size() + 2, "one session span per session call");
    std::map<std::size_t, std::size_t> per_parent;
    for (const Span& s : spans) {
      check(s.parent >= 1 && s.parent <= sessions.size(), "span has a session parent");
      check(s.t1 >= s.t0, "span ends after it starts");
      ++per_parent[s.parent];
    }
    check(per_parent.size() == sessions.size(), "every session call has backend spans");
  } catch (const std::exception& e) {
    std::cerr << "FAIL: " << e.what() << "\n";
    return 1;
  }
  if (failures == 0) std::cout << "trace_test: decorated and bare runs agree\n";
  return failures == 0 ? 0 : 1;
}
