#include "sizing/backend.hpp"

#include <algorithm>

#include "core/vbs_batch.hpp"
#include "models/sleep_transistor.hpp"
#include "util/error.hpp"

namespace mtcmos::sizing {

namespace {

core::VbsOptions with_resistance(core::VbsOptions opt, double r) {
  opt.sleep_resistance = r;
  return opt;
}

// Per-thread simulator scratch: pool workers reuse their buffers across
// every run of a sweep instead of reallocating per delay call.
core::VbsWorkspace& local_workspace() {
  thread_local core::VbsWorkspace ws;
  return ws;
}

core::VbsBatchWorkspace& local_batch_workspace() {
  thread_local core::VbsBatchWorkspace ws;
  return ws;
}

// Run the batch kernel over `vps` and convert lane results to the
// Outcome shape the batch interface promises.
void run_vbs_batch(const core::VbsSimulator& sim, const std::vector<std::string>& outputs,
                   const VectorPair* const* vps, std::size_t n, Outcome<double>* out) {
  std::vector<core::VbsBatchItem> items(n);
  for (std::size_t i = 0; i < n; ++i) items[i] = {&vps[i]->v0, &vps[i]->v1};
  std::vector<core::VbsLaneResult> lanes(n);
  const core::VbsBatchSimulator batch(sim);
  batch.critical_delays(items.data(), n, outputs, local_batch_workspace(), lanes.data());
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = lanes[i].ok ? Outcome<double>::success(lanes[i].delay)
                         : Outcome<double>::fail(lanes[i].failure);
  }
}

}  // namespace

// --- EvalBackend batch defaults ---

void EvalBackend::delay_at_wl_batch(const VectorPair* const* vps, std::size_t n, double wl,
                                    Outcome<double>* out) const {
  for (std::size_t i = 0; i < n; ++i) {
    try {
      out[i] = Outcome<double>::success(delay_at_wl(*vps[i], wl));
    } catch (const NumericalError& e) {
      out[i] = Outcome<double>::fail(e.info());
    }
  }
}

void EvalBackend::delay_baseline_batch(const VectorPair* const* vps, std::size_t n,
                                       Outcome<double>* out) const {
  for (std::size_t i = 0; i < n; ++i) {
    try {
      out[i] = Outcome<double>::success(delay_baseline(*vps[i]));
    } catch (const NumericalError& e) {
      out[i] = Outcome<double>::fail(e.info());
    }
  }
}

// --- Caches ---

BaselineMemo::Key::Key(const VectorPair& vp) {
  // One word: |v0| in bits 59-63, |v1| in bits 54-58, v0 in bits 27-53
  // and v1 in bits 0-26.  Wider pairs keep both lengths, then the bits
  // of v0 followed by those of v1.
  constexpr std::size_t kNarrow = 27;
  const std::size_t n0 = vp.v0.size(), n1 = vp.v1.size();
  if (n0 <= kNarrow && n1 <= kNarrow) {
    word = std::uint64_t{n0} << 59 | std::uint64_t{n1} << 54;
    for (std::size_t i = 0; i < n0; ++i) word |= std::uint64_t{vp.v0[i]} << (kNarrow + i);
    for (std::size_t i = 0; i < n1; ++i) word |= std::uint64_t{vp.v1[i]} << i;
    return;
  }
  wide.assign(2 + (n0 + n1 + 63) / 64, 0);
  wide[0] = n0;
  wide[1] = n1;
  for (std::size_t i = 0; i < n0 + n1; ++i) {
    const bool bit = i < n0 ? vp.v0[i] : vp.v1[i - n0];
    wide[2 + i / 64] |= std::uint64_t{bit} << (i % 64);
  }
}

std::size_t BaselineMemo::KeyHash::operator()(const Key& key) const {
  std::uint64_t h = key.word;
  for (const std::uint64_t w : key.wide) h = (h ^ w) * 0x9E3779B97F4A7C15u;
  // splitmix64 finalizer: every key bit reaches the bucket bits.
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9u;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBu;
  return static_cast<std::size_t>(h ^ (h >> 31));
}

std::optional<double> BaselineMemo::find(const VectorPair& vp) {
  const Key key(vp);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

std::vector<std::size_t> BaselineMemo::find_batch(const VectorPair* const* vps, std::size_t n,
                                                  Outcome<double>* out) {
  std::vector<Key> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.emplace_back(*vps[i]);
  std::vector<std::size_t> miss;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = map_.find(keys[i]);
    if (it != map_.end()) {
      ++hits_;
      out[i] = Outcome<double>::success(it->second);
    } else {
      ++misses_;
      miss.push_back(i);
    }
  }
  return miss;
}

void BaselineMemo::insert(const VectorPair& vp, double delay) {
  // A concurrent duplicate computed the same deterministic value, so
  // whichever insert wins is equivalent.
  Key key(vp);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (map_.size() >= capacity_ && map_.find(key) == map_.end()) {
    map_.erase(map_.begin());
    ++evictions_;
  }
  map_.try_emplace(std::move(key), delay);
}

void BaselineMemo::fill(CacheStats& s) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  s.baseline_entries = map_.size();
  s.baseline_capacity = capacity_;
  s.baseline_hits = hits_;
  s.baseline_misses = misses_;
  s.baseline_evictions = evictions_;
}

// --- VbsBackend ---

VbsBackend::VbsBackend(const Netlist& nl, std::vector<std::string> outputs,
                       core::VbsOptions base, EvalCacheLimits limits)
    : nl_(nl),
      outputs_(std::move(outputs)),
      base_(base),
      baseline_sim_(nl, with_resistance(base, 0.0)),
      sims_(limits.max_simulators),
      baselines_(limits.max_baseline_delays) {
  require(!outputs_.empty(), "VbsBackend: need at least one output net");
  require(limits.max_simulators >= 1 && limits.max_baseline_delays >= 1,
          "VbsBackend: cache limits must be >= 1");
  for (const std::string& name : outputs_) {
    require(nl_.find_net(name).has_value(), "VbsBackend: unknown net " + name);
  }
}

double VbsBackend::delay_baseline(const VectorPair& vp) const {
  if (const auto hit = baselines_.find(vp)) return *hit;
  const double d = baseline_sim_.critical_delay(vp.v0, vp.v1, outputs_, local_workspace());
  baselines_.insert(vp, d);
  return d;
}

std::shared_ptr<const core::VbsSimulator> VbsBackend::simulator_at_wl(double wl) const {
  return sims_.get(wl, [&] {
    const double r = SleepTransistor(nl_.tech(), wl).reff();
    return std::make_shared<const core::VbsSimulator>(nl_, with_resistance(base_, r));
  });
}

double VbsBackend::delay_at_wl(const VectorPair& vp, double wl) const {
  // Hold the shared_ptr for the duration of the run: a concurrent
  // eviction only drops the cache's reference, never the running one.
  const auto sim = simulator_at_wl(wl);
  return sim->critical_delay(vp.v0, vp.v1, outputs_, local_workspace());
}

void VbsBackend::delay_at_wl_batch(const VectorPair* const* vps, std::size_t n, double wl,
                                   Outcome<double>* out) const {
  const auto sim = simulator_at_wl(wl);
  run_vbs_batch(*sim, outputs_, vps, n, out);
}

void VbsBackend::delay_baseline_batch(const VectorPair* const* vps, std::size_t n,
                                      Outcome<double>* out) const {
  // Resolve memo hits first, then run the kernel over the misses only --
  // on the second and later probes of a bisection the whole batch
  // typically hits.
  const std::vector<std::size_t> miss = baselines_.find_batch(vps, n, out);
  if (miss.empty()) return;
  std::vector<const VectorPair*> miss_vps(miss.size());
  std::vector<Outcome<double>> miss_out(miss.size());
  for (std::size_t k = 0; k < miss.size(); ++k) miss_vps[k] = vps[miss[k]];
  run_vbs_batch(baseline_sim_, outputs_, miss_vps.data(), miss.size(), miss_out.data());
  for (std::size_t k = 0; k < miss.size(); ++k) {
    // Failures are reported, never cached -- exactly like the scalar
    // call, which throws before touching the memo.
    if (miss_out[k].ok()) baselines_.insert(*miss_vps[k], *miss_out[k].value);
    out[miss[k]] = std::move(miss_out[k]);
  }
}

CacheStats VbsBackend::cache_stats() const {
  CacheStats s;
  sims_.fill(s);
  baselines_.fill(s);
  return s;
}

// --- SpiceBackend ---

SpiceBackend::SpiceBackend(const Netlist& nl, std::vector<std::string> outputs,
                           SpiceBackendOptions options)
    : nl_(nl),
      outputs_(std::move(outputs)),
      options_(options),
      engines_(options.max_engines),
      baselines_(options.max_baseline_delays) {
  require(!outputs_.empty(), "SpiceBackend: need at least one output net");
  require(options_.max_engines >= 1 && options_.max_baseline_delays >= 1,
          "SpiceBackend: cache limits must be >= 1");
  require(options_.bypass_tol >= 0.0, "SpiceBackend: bypass_tol must be non-negative");
  for (const std::string& name : outputs_) {
    require(nl_.find_net(name).has_value(), "SpiceBackend: unknown net " + name);
  }
  SpiceRefOptions ropt = ref_options_for_wl(/*wl=*/0.0);
  ropt.expand = options_.expand;
  ropt.expand.ground = netlist::ExpandOptions::Ground::kIdeal;
  auto entry = std::make_shared<Entry>();
  entry->ropt = ropt;
  baseline_ = std::move(entry);
}

SpiceRefOptions SpiceBackend::ref_options_for_wl(double wl) const {
  SpiceRefOptions ropt;
  ropt.expand = options_.expand;
  if (ropt.expand.ground == netlist::ExpandOptions::Ground::kIdeal) {
    ropt.expand.ground = netlist::ExpandOptions::Ground::kSleepFet;
  }
  ropt.expand.sleep_wl = wl;
  ropt.tstop = options_.tstop;
  ropt.dt = options_.dt;
  ropt.recovery = options_.recovery;
  ropt.bypass_tol = options_.bypass_tol;
  ropt.jacobian_reuse = options_.jacobian_reuse;
  return ropt;
}

std::shared_ptr<SpiceBackend::Entry> SpiceBackend::entry_at_wl(double wl) const {
  // An entry is just the build recipe plus an empty pool, so creating it
  // under the cache lock is cheap; the expensive expansion happens in
  // acquire(), per instance, outside any lock.  In-flight measurements
  // keep an evicted entry (and its pool) alive through their shared_ptr.
  return engines_.get(wl, [&] {
    auto entry = std::make_shared<Entry>();
    entry->ropt = ref_options_for_wl(wl);
    return entry;
  });
}

SpiceBackend::Lease SpiceBackend::acquire(const std::shared_ptr<Entry>& entry) const {
  {
    const std::lock_guard<std::mutex> lock(entry->pool_mutex);
    if (!entry->idle.empty()) {
      SpiceRef* ref = entry->idle.back();
      entry->idle.pop_back();
      return Lease(entry, ref);
    }
  }
  // Pool exhausted: build a fresh instance outside the lock (expansion +
  // pattern analysis is expensive) and register it.  The pool grows to at
  // most one instance per concurrent caller and never shrinks until the
  // entry is evicted and the last lease returns.
  auto built = std::make_unique<SpiceRef>(nl_, outputs_, entry->ropt);
  SpiceRef* ref = built.get();
  const std::lock_guard<std::mutex> lock(entry->pool_mutex);
  entry->refs.push_back(std::move(built));
  return Lease(entry, ref);
}

SpiceRefResult SpiceBackend::measure_at_wl(const VectorPair& vp, double wl) const {
  const Lease lease = acquire(entry_at_wl(wl));
  return lease.ref().measure(vp);
}

double SpiceBackend::delay_at_wl(const VectorPair& vp, double wl) const {
  const SpiceRefResult r = measure_at_wl(vp, wl);
  if (!r.ok()) throw NumericalError(r.failure);
  return r.delay;
}

double SpiceBackend::delay_baseline(const VectorPair& vp) const {
  if (const auto hit = baselines_.find(vp)) return *hit;
  SpiceRefResult r;
  {
    const Lease lease = acquire(baseline_);
    r = lease.ref().measure(vp);
  }
  if (!r.ok()) throw NumericalError(r.failure);
  baselines_.insert(vp, r.delay);
  return r.delay;
}

spice::EngineStats SpiceBackend::engine_stats() const {
  spice::EngineStats total;
  const auto add_pool = [&total](Entry& entry) {
    const std::lock_guard<std::mutex> lock(entry.pool_mutex);
    // Only idle instances are read: a leased engine's counters are being
    // mutated by its worker, and skipping it keeps this accessor safe to
    // call at any time (the numbers are complete once the pool drains).
    for (SpiceRef* ref : entry.idle) {
      const spice::EngineStats& s = ref->engine_stats();
      total.device_evals += s.device_evals;
      total.bypass_hits += s.bypass_hits;
      total.factorizations += s.factorizations;
      total.solves += s.solves;
      total.newton_iters += s.newton_iters;
      total.full_newton_fallbacks += s.full_newton_fallbacks;
      total.workspace_bytes += s.workspace_bytes;
    }
  };
  for (const auto& entry : engines_.entries()) add_pool(*entry);
  add_pool(*baseline_);
  return total;
}

CacheStats SpiceBackend::cache_stats() const {
  CacheStats s;
  engines_.fill(s);
  baselines_.fill(s);
  return s;
}

}  // namespace mtcmos::sizing
