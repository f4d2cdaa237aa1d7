#include "flow.hpp"

#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "circuits/generators.hpp"
#include "models/technology.hpp"
#include "sizing/sizing.hpp"

namespace perfbench {

void SpanLog::begin_session(std::string op) {
  sessions_.push_back({std::move(op), now(), 0.0});
  open_.store(sessions_.size(), std::memory_order_release);
}

void SpanLog::end_session() {
  sessions_.back().t1 = now();
  open_.store(0, std::memory_order_release);
}

void SpanLog::record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

template <typename Fn>
auto TracedBackend::traced(Op op, std::size_t items, Fn&& fn) const {
  // Recorded on the way out, also when the call throws (a scalar
  // NumericalError the session isolates).
  struct Close {
    SpanLog& log;
    Span span;
    ~Close() {
      span.t1 = log.now();
      log.record(span);
    }
  } close{log_, {inner_.name(), op, log_.open_session(), log_.now(), 0.0, items}};
  return fn();
}

double TracedBackend::delay_baseline(const sizing::VectorPair& vp) const {
  return traced(Op::kBaseline, 1, [&] { return inner_.delay_baseline(vp); });
}

double TracedBackend::delay_at_wl(const sizing::VectorPair& vp, double wl) const {
  return traced(Op::kAtWl, 1, [&] { return inner_.delay_at_wl(vp, wl); });
}

void TracedBackend::prepare_wl(double wl) const {
  traced(Op::kPrepareWl, 0, [&] { inner_.prepare_wl(wl); });
}

void TracedBackend::delay_at_wl_batch(const sizing::VectorPair* const* vps, std::size_t n,
                                      double wl, mtcmos::Outcome<double>* out) const {
  traced(Op::kAtWl, n, [&] { inner_.delay_at_wl_batch(vps, n, wl, out); });
}

void TracedBackend::delay_baseline_batch(const sizing::VectorPair* const* vps, std::size_t n,
                                         mtcmos::Outcome<double>* out) const {
  traced(Op::kBaseline, n, [&] { inner_.delay_baseline_batch(vps, n, out); });
}

Circuit make_adder(int nbits) {
  auto adder = mtcmos::circuits::make_ripple_adder(mtcmos::tech07(), nbits);
  Circuit c{std::move(adder.netlist), {}};
  for (const auto s : adder.sum) c.outputs.push_back(c.nl.net_name(s));
  c.outputs.push_back(c.nl.net_name(adder.cout));
  return c;
}

FlowAnswer run_flow(const sizing::EvalBackend& fast, const sizing::EvalBackend& reference,
                    const std::vector<sizing::VectorPair>& vectors, sizing::EvalSession session,
                    SpanLog* log) {
  FlowAnswer a;
  session.report = &a.report;
  for (const double wl : kWlTable) {
    session_call(log, "rank_vectors", [&] {
      const auto ranked = sizing::rank_vectors(fast, vectors, wl, session);
      a.table_worst.push_back(ranked.empty() ? -1.0 : ranked.front().degradation_pct);
    });
  }
  session_call(log, "size_for_degradation", [&] {
    a.sized = sizing::size_for_degradation(fast, vectors, kTargetPct, {}, session);
  });
  session_call(log, "verify_sizing", [&] {
    a.verify = sizing::verify_sizing(fast, reference, a.sized, kTargetPct, session);
  });
  return a;
}

std::string exact(double x) {
  std::uint64_t u = 0;
  std::memcpy(&u, &x, sizeof u);
  char buf[64];
  std::snprintf(buf, sizeof buf, "%016llx(%.17g)", static_cast<unsigned long long>(u), x);
  return buf;
}

std::string pair_str(const sizing::VectorPair& vp) {
  std::string s;
  for (const bool b : vp.v0) s += b ? '1' : '0';
  s += "->";
  for (const bool b : vp.v1) s += b ? '1' : '0';
  return s;
}

std::string digest(const FlowAnswer& a) {
  std::ostringstream os;
  os << "table";
  for (const double w : a.table_worst) os << " " << exact(w);
  os << "\nsized wl " << exact(a.sized.wl) << " degradation " << exact(a.sized.degradation_pct)
     << " binding " << pair_str(a.sized.binding_vector) << "\nverify ok " << a.verify.ok
     << " reference " << exact(a.verify.reference_degradation_pct) << " delta "
     << exact(a.verify.delta_pct) << "\n";
  return os.str();
}

}  // namespace perfbench
