#pragma once
// The paper's sizing flow as a designer runs it (mtcmos_sizer
// builtin:adderN --target 5 --verify), driven through the public sizing
// API, plus the forwarding EvalBackend decorator that records one span
// around every call into a backend.  Shared by the benchmark program
// (flow_bench.cpp) and the decorator test (trace_test.cpp).

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "sizing/backend.hpp"
#include "sizing/session.hpp"
#include "util/failure.hpp"

namespace perfbench {

namespace sizing = mtcmos::sizing;

/// Backend entry points a span can cover.
enum class Op : std::uint8_t { kBaseline, kAtWl, kPrepareWl };

inline const char* op_name(Op op) {
  switch (op) {
    case Op::kBaseline: return "baseline";
    case Op::kAtWl: return "at_wl";
    case Op::kPrepareWl: return "prepare_wl";
  }
  return "?";
}

/// One call into a backend: which backend and entry point, the session
/// call that caused it, its interval and the items it covered.
struct Span {
  const char* backend = "";   ///< EvalBackend::name() of the wrapped backend
  Op op = Op::kBaseline;
  std::size_t parent = 0;     ///< index + 1 into SpanLog::sessions(); 0 = outside any
  double t0 = 0.0, t1 = 0.0;  ///< seconds since the log's epoch
  std::size_t items = 0;
};

/// One session-API call (rank_vectors, size_for_degradation,
/// verify_sizing): the parent of every backend span it causes.
struct SessionSpan {
  std::string op;
  double t0 = 0.0, t1 = 0.0;
};

/// In-memory span store.  Backend spans arrive from pool workers
/// (mutex-guarded); session spans are opened and closed by the driving
/// thread, which publishes the open one so workers can name it as parent.
class SpanLog {
 public:
  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
  }
  void begin_session(std::string op);
  void end_session();
  /// Index + 1 of the open session span (0 = none); read by pool workers.
  std::size_t open_session() const { return open_.load(std::memory_order_acquire); }
  void record(const Span& span);

  const std::vector<SessionSpan>& sessions() const { return sessions_; }
  std::vector<Span> spans() const;

 private:
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<SessionSpan> sessions_;  ///< driving thread only
  std::atomic<std::size_t> open_{0};   ///< index + 1 of the open session span
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// Forwarding decorator: every delay_* / delay_*_batch / prepare_wl call
/// is passed to the wrapped backend unchanged and recorded as a Span.
/// name(), netlist(), outputs() and supports_batch() are forwarded
/// as-is, so checkpoint keys and the session's batch path are exactly
/// those of the undecorated backend.
class TracedBackend final : public sizing::EvalBackend {
 public:
  TracedBackend(const sizing::EvalBackend& inner, SpanLog& log) : inner_(inner), log_(log) {}

  const char* name() const override { return inner_.name(); }
  const mtcmos::netlist::Netlist& netlist() const override { return inner_.netlist(); }
  const std::vector<std::string>& outputs() const override { return inner_.outputs(); }
  bool supports_batch() const override { return inner_.supports_batch(); }
  sizing::CacheStats cache_stats() const override { return inner_.cache_stats(); }

  double delay_baseline(const sizing::VectorPair& vp) const override;
  double delay_at_wl(const sizing::VectorPair& vp, double wl) const override;
  void prepare_wl(double wl) const override;
  void delay_at_wl_batch(const sizing::VectorPair* const* vps, std::size_t n, double wl,
                         mtcmos::Outcome<double>* out) const override;
  void delay_baseline_batch(const sizing::VectorPair* const* vps, std::size_t n,
                            mtcmos::Outcome<double>* out) const override;

 private:
  template <typename Fn>
  auto traced(Op op, std::size_t items, Fn&& fn) const;

  const sizing::EvalBackend& inner_;
  SpanLog& log_;
};

/// Run `fn`, one session-API call, as a SessionSpan named `op` in `log`
/// (when given).
template <typename Fn>
void session_call(SpanLog* log, const char* op, Fn&& fn) {
  if (log != nullptr) log->begin_session(op);
  fn();
  if (log != nullptr) log->end_session();
}

/// A built-in circuit with the nets whose latest crossing is its delay.
struct Circuit {
  mtcmos::netlist::Netlist nl;
  std::vector<std::string> outputs;
};

/// The paper's N-bit ripple-carry adder, built exactly as mtcmos_sizer's
/// builtin:adderN.
Circuit make_adder(int nbits);

/// The flow's W/L table (mtcmos_sizer's default --sweep) and target.
inline const std::vector<double> kWlTable = {5, 10, 20, 40, 80, 160};
constexpr double kTargetPct = 5.0;

/// What one run of the flow answers.
struct FlowAnswer {
  std::vector<double> table_worst;  ///< worst degradation per kWlTable row
  sizing::SizingResult sized;
  sizing::VerifyResult verify;
  mtcmos::SweepReport report;  ///< every session item of the run
};

/// W/L table via rank_vectors, size_for_degradation to kTargetPct, then
/// verify_sizing of the binding vector on `reference`.  `session.report`
/// is overridden with the answer's own report.  When `log` is given,
/// each session call is recorded as a SessionSpan.
FlowAnswer run_flow(const sizing::EvalBackend& fast, const sizing::EvalBackend& reference,
                    const std::vector<sizing::VectorPair>& vectors, sizing::EvalSession session,
                    SpanLog* log = nullptr);

/// Canonical text of an answer with every double as its exact bit
/// pattern (sized W/L, degradation, binding vector, table rows,
/// verification): two answers are bit-identical iff their digests are
/// equal.
std::string digest(const FlowAnswer& a);

/// Exact text of a double: its 64-bit pattern in hex plus a readable value.
std::string exact(double x);

/// A transition as "v0->v1" bit strings.
std::string pair_str(const sizing::VectorPair& vp);

}  // namespace perfbench
