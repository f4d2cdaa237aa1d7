#include "sizing/session.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <numeric>
#include <optional>
#include <ranges>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sizing/checkpoint.hpp"
#include "sizing/result_sink.hpp"
#include "sizing/sizing.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"

namespace mtcmos::sizing {

namespace {

using Clock = std::chrono::steady_clock;

// Wall-clock budget for one entry-point call.  Disarmed (the default) it
// never samples the clock, keeping default sweeps bit-reproducible.
struct Deadline {
  Clock::time_point end = {};
  bool armed = false;

  static Deadline start(double budget_s) {
    Deadline d;
    if (budget_s > 0.0) {
      d.armed = true;
      d.end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(budget_s));
    }
    return d;
  }
  bool expired() const { return armed && Clock::now() >= end; }
};

// Running-median latency tracker behind WatchdogConfig.  Two balanced
// multisets give O(log n) insert and O(1) median; all completed attempts
// feed the median (a median is robust to the pathological outliers the
// watchdog exists to flag).
class Watchdog {
 public:
  explicit Watchdog(const WatchdogConfig& config) : config_(config) {}

  /// Record one completed attempt; true when it blew the budget.
  /// `median_out` receives the running median the verdict compared
  /// against (pre-insert), so failure entries can carry the evidence.
  bool over_budget(double seconds, double& median_out) {
    const std::lock_guard<std::mutex> lock(mutex_);
    median_out = median_locked();
    const bool flagged = seconds > config_.floor_s && count() >= config_.min_samples &&
                         seconds > config_.multiple * median_out;
    insert_locked(seconds);
    return flagged;
  }

 private:
  std::size_t count() const { return lower_.size() + upper_.size(); }

  double median_locked() const {
    if (lower_.empty()) return 0.0;
    if (lower_.size() > upper_.size()) return *lower_.rbegin();
    return 0.5 * (*lower_.rbegin() + *upper_.begin());
  }

  void insert_locked(double s) {
    if (lower_.empty() || s <= *lower_.rbegin()) {
      lower_.insert(s);
    } else {
      upper_.insert(s);
    }
    if (lower_.size() > upper_.size() + 1) {
      upper_.insert(*lower_.rbegin());
      lower_.erase(std::prev(lower_.end()));
    } else if (upper_.size() > lower_.size()) {
      lower_.insert(*upper_.begin());
      upper_.erase(upper_.begin());
    }
  }

  WatchdogConfig config_;
  std::mutex mutex_;
  std::multiset<double> lower_, upper_;
};

// Everything an entry-point call resolves from its session, once: the
// report (the caller's, or a scratch one that discards outcomes), the
// pool, the wall-clock deadline, the cancel token, the checkpoint
// (stripped to null unless armed, so the hot path tests one pointer),
// whether item keys are needed at all, and the optional watchdog.
struct RunCtx {
  explicit RunCtx(const EvalSession& s)
      : session(s),
        report(s.report != nullptr ? *s.report : scratch),
        pool(s.pool_ref()),
        deadline(Deadline::start(s.deadline_s)),
        cancel(s.cancel_ref()),
        checkpoint(s.checkpoint != nullptr && s.checkpoint->armed() ? s.checkpoint : nullptr),
        keyed(ItemKeys::needed(checkpoint, s.sink)) {
    if (s.watchdog.armed()) watchdog.emplace(s.watchdog);
  }

  /// The serial reduction's per-item step: record item `index`'s outcome
  /// in the report and return whether it succeeded.  A failure is
  /// rethrown unless the session policy isolates it.
  template <typename T>
  bool admit(std::size_t index, const Outcome<T>& outcome) {
    report.add(index, outcome);
    if (outcome.ok()) return true;
    if (!session.policy.isolate) throw NumericalError(outcome.failure);
    return false;
  }

  // Declared first: `report` may bind to it.  Watchdog's mutex makes
  // RunCtx non-copyable, so that binding never outlives its target.
  SweepReport scratch;
  const EvalSession& session;
  SweepReport& report;
  util::ThreadPool& pool;
  const Deadline deadline;
  util::CancelToken& cancel;
  Checkpoint* const checkpoint;
  const bool keyed;  ///< ItemKeys::needed: a checkpoint or a key-carrying sink
  std::optional<Watchdog> watchdog;
};

// Run one sweep item under the policy's retry budget, stamping the item
// index as the fault-injection scope so tests can address "item 37" by
// name.  Only NumericalError is retried/recorded; precondition errors
// (std::invalid_argument and friends) propagate -- they indicate caller
// bugs, not numerical bad luck.
//
// Ordering per attempt: cancellation (kCancelled, never journaled), then
// the session deadline (kDeadlineExceeded), then the body.  With the
// watchdog armed, a completed attempt slower than the running-median
// budget is discarded as kDeadlineExceeded and the item requeued exactly
// once; a second over-budget attempt fails the item.  Checkpoint replay
// and recording wrap this: Sweep replays journaled items before
// evaluating and journals each chunk after it, run_keyed does both for
// a single item.
template <typename T, typename Fn>
Outcome<T> run_item(RunCtx& ctx, std::size_t index, Fn&& body) {
  const faultinject::ScopedScope scope(static_cast<std::int64_t>(index));
  int budget = std::max(1, ctx.session.policy.max_attempts);
  bool requeued = false;
  FailureInfo last;
  for (int attempt = 1; attempt <= budget; ++attempt) {
    if (ctx.cancel.requested()) {
      last.code = FailureCode::kCancelled;
      last.site = "sizing::sweep_item";
      last.context = "cancelled before item " + std::to_string(index);
      last.attempts = attempt;
      return Outcome<T>::fail(last);  // interruption artifact: never journaled
    }
    if (ctx.deadline.expired()) {
      last.code = FailureCode::kDeadlineExceeded;
      last.site = "sizing::sweep_item";
      last.context = "session deadline exceeded before item " + std::to_string(index);
      last.attempts = attempt;
      return Outcome<T>::fail(last);
    }
    std::optional<T> value;
    try {
      faultinject::check(faultinject::Site::kSweepItem, "sizing::sweep_item");
      if (!ctx.watchdog) {
        value = body();
      } else {
        const auto t0 = Clock::now();
        value = body();
        const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
        double median = 0.0;
        if (ctx.watchdog->over_budget(seconds, median)) {
          last.code = FailureCode::kDeadlineExceeded;
          last.site = "sizing::watchdog";
          last.context = "item " + std::to_string(index) + " took " + std::to_string(seconds) +
                         " s, over the running-median budget (median " +
                         std::to_string(median) + " s)";
          last.attempts = attempt;
          last.elapsed_s = seconds;
          last.median_s = median;
          if (!requeued) {
            requeued = true;
            if (attempt == budget) ++budget;  // the single watchdog requeue
            continue;
          }
          break;  // second strike: genuinely pathological, fail the item
        }
      }
    } catch (const NumericalError& e) {
      last = e.info();
      last.attempts = attempt;
      continue;
    }
    return Outcome<T>::success(std::move(*value), attempt);
  }
  return Outcome<T>::fail(last);
}

// One keyed item outside a Sweep (the search refinement, verification):
// replay its journaled outcome, or run it and journal what it produced
// (Checkpoint::stage filters interruption artifacts) under its scope.
// The append is outside run_item's catch deliberately: a journal append
// failure is a crash of the checkpoint machinery, not numerical bad luck
// on this item -- it must tear down the sweep (like running out of disk
// would), not burn the item's retry budget.
template <typename T, typename Fn>
Outcome<T> run_keyed(RunCtx& ctx, std::size_t index, const std::string& key, Fn&& body) {
  Outcome<T> out;
  if (ctx.checkpoint != nullptr && ctx.checkpoint->lookup(key, out)) return out;
  out = run_item<T>(ctx, index, body);
  if (ctx.checkpoint != nullptr) {
    util::JournalBatch batch;
    Checkpoint::stage(batch, key, out, static_cast<std::int64_t>(index));
    ctx.checkpoint->append(batch);
  }
  return out;
}

// --- Batch fast path (EvalSession::batch) ---

constexpr std::size_t kDefaultBatch = 256;

// Chunk size for this entry-point call, or 0 when the batch precompute
// must stand down: the backend has no batch kernel, the caller forced
// scalar (batch == 1), the watchdog is armed (it times individual item
// bodies, which a precomputed memo would reduce to nothing), or a
// fault-injection plan targets a VBS site (such plans address per-item
// scopes, which a batch-wide kernel run cannot honor).
std::size_t batch_chunk(const EvalSession& session, const EvalBackend& backend) {
  if (session.batch == 1 || !backend.supports_batch()) return 0;
  if (session.watchdog.armed()) return 0;
  if (faultinject::armed(faultinject::Site::kVbsRun) ||
      faultinject::armed(faultinject::Site::kVbsBreakpoint)) {
    return 0;
  }
  return session.batch == 0 ? kDefaultBatch : session.batch;
}

// Baseline and sized delays of one W/L's items, precomputed through the
// backend's batch path and consumed (once) by the run_item bodies in
// place of the scalar backend call; shared by rank_vectors, every
// size_for_degradation probe phase and search_worst_vector's sample pass.
//
// Construction batches the items of `subset` (nullptr = every item):
// what Sweep::replay left to compute, so a resumed run batches only the
// remaining items.  Baselines go first (after a bisection's first probe
// they are all backend-memo hits), then the sized delay only where the
// baseline toggled the outputs, mirroring row()'s early
// return; without `with_baseline` every item's sized delay is batched.
//
// row(i) and at_wl(i) fall back to the scalar backend calls when the
// batch path stood down.  A consumed failure is rethrown as the
// NumericalError the scalar call would have thrown; because slots are
// consume-once, retry attempts fall back to the live backend, which
// reproduces the same deterministic outcome -- so attempt counts, failure
// records and checkpoint contents match the scalar path exactly.  Workers
// touch disjoint indices only.
class DelayMemo {
 public:
  DelayMemo(const RunCtx& ctx, const EvalBackend& backend, const std::vector<VectorPair>& vectors,
            double wl, const std::vector<std::size_t>* subset, bool with_baseline = true)
      : backend_(backend), vectors_(vectors), wl_(wl), chunk_(batch_chunk(ctx.session, backend)) {
    if (chunk_ == 0 || ctx.cancel.requested()) return;
    std::vector<std::size_t> todo;
    if (subset != nullptr) {
      todo = *subset;
    } else {
      todo.resize(vectors.size());
      std::iota(todo.begin(), todo.end(), std::size_t{0});
    }
    if (with_baseline) {
      precompute(ctx, todo, base_,
                 [&](const VectorPair* const* vps, std::size_t m, Outcome<double>* out) {
                   backend.delay_baseline_batch(vps, m, out);
                 });
      std::erase_if(todo, [&](std::size_t i) {
        return !base_[i] || !base_[i]->ok() || !(*base_[i]->value > 0.0);
      });
    }
    precompute(ctx, todo, sized_,
               [&](const VectorPair* const* vps, std::size_t m, Outcome<double>* out) {
                 backend.delay_at_wl_batch(vps, m, wl, out);
               });
  }

  /// Items per Sweep::evaluate task: the batch chunk, whose items are
  /// memo reads, or 1 when every item is a full backend call.
  std::size_t grain() const { return std::max<std::size_t>(1, chunk_); }

  double at_wl(std::size_t i) {
    return take(sized_, i, [&] { return backend_.delay_at_wl(vectors_[i], wl_); });
  }
  /// Item i's delays and degradation; the sized delay only where the
  /// baseline toggled the outputs.
  VectorDelay row(std::size_t i) {
    VectorDelay vd;
    vd.delay_cmos = take(base_, i, [&] { return backend_.delay_baseline(vectors_[i]); });
    if (vd.delay_cmos <= 0.0) return vd;
    vd.delay_mtcmos = at_wl(i);
    if (vd.delay_mtcmos <= 0.0) return vd;
    vd.degradation_pct = (vd.delay_mtcmos - vd.delay_cmos) / vd.delay_cmos * 100.0;
    return vd;
  }

 private:
  using Slots = std::vector<std::optional<Outcome<double>>>;

  // Fan one batched evaluation over the pool: the items in `idx` run in
  // chunk_-sized groups, one backend batch call each.  Chunks not yet
  // started when the session is cancelled or the deadline expires are
  // skipped; run_item classifies those items normally when it reaches
  // them.
  template <typename BatchFn>
  void precompute(const RunCtx& ctx, const std::vector<std::size_t>& idx, Slots& slots,
                  const BatchFn& call) {
    slots.resize(vectors_.size());
    ctx.pool.parallel_for((idx.size() + chunk_ - 1) / chunk_, [&](std::size_t c) {
      if (ctx.cancel.requested() || ctx.deadline.expired()) return;
      const std::size_t begin = c * chunk_;
      const std::size_t end = std::min(begin + chunk_, idx.size());
      std::vector<const VectorPair*> vps(end - begin);
      for (std::size_t k = begin; k < end; ++k) vps[k - begin] = &vectors_[idx[k]];
      std::vector<Outcome<double>> out(end - begin);
      call(vps.data(), vps.size(), out.data());
      for (std::size_t k = begin; k < end; ++k) slots[idx[k]] = std::move(out[k - begin]);
    });
  }

  template <typename Fn>
  static double take(Slots& slots, std::size_t i, const Fn& fallback) {
    if (i >= slots.size() || !slots[i]) return fallback();
    const Outcome<double> o = std::move(*slots[i]);
    slots[i].reset();
    if (!o.ok()) throw NumericalError(o.failure);
    return *o.value;
  }

  const EvalBackend& backend_;
  const std::vector<VectorPair>& vectors_;
  double wl_;
  std::size_t chunk_;
  Slots base_, sized_;
};

void emit(ResultSink& sink, const std::string& key, double value) { sink.on_value(key, value); }
void emit(ResultSink& sink, const std::string& key, const VectorDelay& row) {
  sink.on_delay(key, row);
}

// The replay-evaluate-reduce step every sweep runs over its items, each
// taking an optional ascending `subset` of indices (nullptr = every
// item).  replay() puts journaled outcomes into the index-addressed
// Outcome slots and returns the items left to compute; evaluate() fills
// those through run_item on the pool, journaling each chunk with one
// append; reduce() then walks the items serially in input order,
// admitting each outcome, emitting each success into the session sink
// under its item key, and handing it to `take`.  The report, the emission
// stream and whatever `take` builds are therefore identical for any
// thread count, and a failed item only removes itself.
template <typename T>
class Sweep {
 public:
  Sweep(RunCtx& ctx, const ItemKeys& keys, const std::vector<VectorPair>& vectors)
      : slots(vectors.size()), ctx_(ctx), keys_(keys), vectors_(vectors) {}

  /// With a checkpoint armed, formats each item's key once and looks it
  /// up once, in parallel: a journaled outcome goes straight into its
  /// slot, and the ascending items still to compute are returned.  The
  /// keys are kept for evaluate()'s records and reduce()'s sink.  Without
  /// a checkpoint this returns `subset` and allocates nothing.
  const std::vector<std::size_t>* replay(const std::vector<std::size_t>* subset) {
    if (ctx_.checkpoint == nullptr) return subset;
    const std::size_t n = count(subset);
    if (key_at_.empty()) key_at_.resize(vectors_.size());
    std::size_t bytes = key_bytes_.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = item(subset, k);
      key_at_[i] = bytes;
      bytes += keys_.size(vectors_[i]);
    }
    key_bytes_.resize(bytes);
    std::vector<char> hit(n, 0);
    ctx_.pool.parallel_for((n + kDefaultBatch - 1) / kDefaultBatch, [&](std::size_t c) {
      for (std::size_t k = c * kDefaultBatch; k < std::min(n, (c + 1) * kDefaultBatch); ++k) {
        const std::size_t i = item(subset, k);
        keys_.write(vectors_[i], key_bytes_.data() + key_at_[i]);
        if (ctx_.checkpoint->lookup(item_key(i), slots[i])) {
          hit[k] = 1;
          attach_pair(i);
        }
      }
    });
    misses_.clear();
    for (std::size_t k = 0; k < n; ++k) {
      if (hit[k] == 0) misses_.push_back(item(subset, k));
    }
    return &misses_;
  }

  /// `body(i)` computes item i of `todo` (what replay() returned);
  /// `grain` items go to each pool task, whose outcomes are then
  /// journaled with one append (each record under its item's scope), so
  /// a crash can lose at most the chunks still in flight.  Plain
  /// parallel_for: run_item already absorbs NumericalErrors, so the only
  /// exceptions that reach the pool are precondition bugs and journal
  /// write failures, which should cancel and propagate.
  template <typename Body>
  void evaluate(const std::vector<std::size_t>* todo, const Body& body, std::size_t grain) {
    const std::size_t n = count(todo);
    ctx_.pool.parallel_for((n + grain - 1) / grain, [&](std::size_t c) {
      const std::size_t begin = c * grain, end = std::min(n, begin + grain);
      for (std::size_t k = begin; k < end; ++k) {
        const std::size_t i = item(todo, k);
        slots[i] = run_item<T>(ctx_, i, [&] { return body(i); });
        attach_pair(i);
      }
      if (ctx_.checkpoint == nullptr) return;
      util::JournalBatch batch;
      for (std::size_t k = begin; k < end; ++k) {
        const std::size_t i = item(todo, k);
        Checkpoint::stage(batch, item_key(i), slots[i], static_cast<std::int64_t>(i));
      }
      ctx_.checkpoint->append(batch);
    });
  }

  /// `take(i, value)` sees each successful item in input order.  `flush`
  /// makes the sink's durability point the end of this reduction.
  template <typename Take>
  void reduce(const std::vector<std::size_t>* subset, const Take& take, bool flush = true) {
    ResultSink* const sink = ctx_.session.sink;
    const std::size_t n = count(subset);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t i = item(subset, k);
      if (!ctx_.admit(i, slots[i])) continue;
      if (sink != nullptr) {
        emit(*sink, key_at_.empty() ? keys_.key(vectors_[i]) : std::string(item_key(i)),
             *slots[i].value);
      }
      take(i, *slots[i].value);
    }
    if (flush && sink != nullptr) sink->flush();
  }

  std::vector<Outcome<T>> slots;

 private:
  std::size_t count(const std::vector<std::size_t>* subset) const {
    return subset != nullptr ? subset->size() : vectors_.size();
  }
  static std::size_t item(const std::vector<std::size_t>* subset, std::size_t k) {
    return subset != nullptr ? (*subset)[k] : k;
  }
  std::string_view item_key(std::size_t i) const {
    return {key_bytes_.data() + key_at_[i], keys_.size(vectors_[i])};
  }
  // The transition lives in the key, not the record; re-attach it for
  // computed and replayed rows alike.
  void attach_pair(std::size_t i) {
    if constexpr (std::is_same_v<T, VectorDelay>) {
      if (slots[i].ok()) slots[i].value->pair = vectors_[i];
    }
  }

  RunCtx& ctx_;
  const ItemKeys& keys_;
  const std::vector<VectorPair>& vectors_;
  std::string key_bytes_;             ///< the keys replay() formatted, back to back
  std::vector<std::size_t> key_at_;   ///< where item i's key starts in key_bytes_
  std::vector<std::size_t> misses_;   ///< replay()'s result
};

// The `k` worst entries of one fully evaluated probe, by degradation
// descending then index ascending.  Failed and negative entries (vectors
// that did not toggle the outputs) are left out.  Selected through an
// index array, so the values are never copied.
std::vector<std::size_t> worst_indices(const std::vector<Outcome<double>>& deg, std::size_t k) {
  std::vector<std::size_t> idx;
  idx.reserve(deg.size());
  for (std::size_t i = 0; i < deg.size(); ++i) {
    if (deg[i].ok() && *deg[i].value >= 0.0) idx.push_back(i);
  }
  k = std::min(k, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(k), idx.end(),
                    [&](std::size_t a, std::size_t b) {
                      const double va = *deg[a].value, vb = *deg[b].value;
                      return va > vb || (va == vb && a < b);
                    });
  idx.resize(k);
  idx.shrink_to_fit();
  return idx;
}

// The rank sweep behind both rank_vectors fronts: every successfully
// measured row (computed or checkpoint-replayed alike) goes to the
// session sink, when one is set, and to `take`.
template <typename Take>
void rank_into(const EvalBackend& backend, const std::vector<VectorPair>& vectors, double wl,
               const EvalSession& session, const Take& take) {
  RunCtx ctx(session);
  const ItemKeys keys(ctx.keyed, "rank", backend, wl);
  if (!ctx.cancel.requested()) backend.prepare_wl(wl);
  Sweep<VectorDelay> sweep(ctx, keys, vectors);
  const std::vector<std::size_t>* todo = sweep.replay(nullptr);
  DelayMemo memo(ctx, backend, vectors, wl, todo);
  sweep.evaluate(todo, [&](std::size_t i) { return memo.row(i); }, memo.grain());
  sweep.reduce(nullptr, take);
}

}  // namespace

std::vector<VectorDelay> rank_vectors(const EvalBackend& backend,
                                      const std::vector<VectorPair>& vectors, double wl,
                                      const EvalSession& session) {
  // The return-value contract over the reduction's row stream: drop
  // non-switching rows, sort worst-first.
  std::vector<VectorDelay> out;
  rank_into(backend, vectors, wl, session, [&](std::size_t, const VectorDelay& row) {
    if (row.delay_cmos > 0.0 && row.delay_mtcmos > 0.0) out.push_back(row);
  });
  std::sort(out.begin(), out.end(), [](const VectorDelay& a, const VectorDelay& b) {
    return a.degradation_pct > b.degradation_pct;
  });
  return out;
}

std::size_t rank_vectors_stream(const EvalBackend& backend,
                                const std::vector<VectorPair>& vectors, double wl,
                                const EvalSession& session) {
  if (session.sink == nullptr) {
    throw std::invalid_argument("rank_vectors_stream: session.sink must be set");
  }
  std::size_t emitted = 0;
  rank_into(backend, vectors, wl, session, [&](std::size_t, const VectorDelay&) { ++emitted; });
  return emitted;
}

SizingResult size_for_degradation(const EvalBackend& backend,
                                  const std::vector<VectorPair>& vectors, double target_pct,
                                  const SizingBounds& bounds, const EvalSession& session) {
  require(!vectors.empty(), "size_for_degradation: need at least one vector");
  require(target_pct > 0.0, "size_for_degradation: target must be positive");
  // Degenerate bounds get a *coded* failure: batch drivers and the CLI
  // classify it (kInvalidArgument) instead of pattern-matching a string,
  // and a checkpointed run can report it like any other failure.
  const auto bad_bounds = [&](const std::string& why) {
    throw NumericalError({FailureCode::kInvalidArgument, "sizing::size_for_degradation",
                          why + " (wl_min=" + std::to_string(bounds.wl_min) +
                              ", wl_max=" + std::to_string(bounds.wl_max) +
                              ", wl_tol=" + std::to_string(bounds.wl_tol) + ")"});
  };
  if (!std::isfinite(bounds.wl_min) || !std::isfinite(bounds.wl_max) ||
      !std::isfinite(bounds.wl_tol)) {
    bad_bounds("SizingBounds must be finite");
  }
  if (!(bounds.wl_min > 0.0)) bad_bounds("wl_min must be positive");
  if (!(bounds.wl_max > bounds.wl_min)) bad_bounds("need wl_min < wl_max");
  if (!(bounds.wl_tol > 0.0)) bad_bounds("wl_tol must be positive");

  RunCtx ctx(session);
  Checkpoint* const ckpt = ctx.checkpoint;

  // Bisection-state journaling: one record, overwritten after every
  // probe, carrying the live W/L interval.  Resume re-derives the same
  // probe sequence (the item records replay each completed probe without
  // simulating), so the state record is the run's progress diagnostic --
  // and its key doubles as the run identity guard.
  const std::uint64_t fp =
      ctx.keyed ? netlist_fingerprint(backend.netlist(), backend.outputs()) : 0;
  std::string bisect_key;
  std::size_t probes = 0;
  if (ckpt != nullptr) {
    bisect_key = ItemKeys("bisect", backend.name(),
                          sizing_args_hash(fp, backend.name(), vectors, target_pct,
                                           bounds.wl_min, bounds.wl_max, bounds.wl_tol),
                          std::nullopt)
                     .prefix();
  }
  const auto record_state = [&](int phase, double lo, double hi, double hi_deg,
                                std::size_t hi_idx) {
    if (ckpt == nullptr) return;
    ckpt->record_bisect(bisect_key, {phase, lo, hi, hi_deg, hi_idx, probes});
  };

  // The last fully evaluated probe's worst vectors: with the incumbent
  // binding vector, the priority set every later probe evaluates first.
  std::vector<std::size_t> top;

  // One probe: a parallel map into index-addressed Outcome slots, then a
  // serial input-order first-maximum reduction that skips failed items --
  // identical to the serial loop for any thread count, whichever items
  // fail.  Given the incumbent, a probe first measures the priority set
  // (incumbent plus `top`).  A vector over target there fails the probe
  // whatever the rest would measure -- and a failing probe's verdict is
  // all the bisection reads -- so the reduction covers that set alone and
  // the rest count as decided_early.  Otherwise the rest are measured and
  // the reduction covers every vector.  With failures not isolated the
  // early exit stands down: a skipped item could have been the first
  // failure in input order, which the full reduction rethrows.
  auto worst_at = [&](double wl, std::optional<std::size_t> incumbent) {
    if (!ctx.cancel.requested()) backend.prepare_wl(wl);
    const ItemKeys keys = ctx.keyed ? ItemKeys("probe", backend.name(), fp, wl) : ItemKeys();
    Sweep<double> probe(ctx, keys, vectors);
    const std::vector<Outcome<double>>& deg = probe.slots;
    const auto measure = [&](const std::vector<std::size_t>* subset) {
      const std::vector<std::size_t>* todo = probe.replay(subset);
      DelayMemo memo(ctx, backend, vectors, wl, todo);
      probe.evaluate(
          todo,
          [&](std::size_t i) {
            const VectorDelay vd = memo.row(i);
            return vd.delay_mtcmos > 0.0 ? vd.degradation_pct : -1.0;  // -1: no toggle
          },
          memo.grain());
    };
    std::vector<std::size_t> first;  // phase 1, ascending
    bool decided = false;
    if (incumbent && session.policy.isolate) {
      first = top;
      if (std::find(first.begin(), first.end(), *incumbent) == first.end()) {
        first.push_back(*incumbent);
      }
      std::sort(first.begin(), first.end());
      measure(&first);
      decided = std::any_of(first.begin(), first.end(), [&](std::size_t i) {
        return deg[i].ok() && *deg[i].value > target_pct;
      });
      if (!decided) {
        std::vector<std::size_t> rest;
        rest.reserve(vectors.size() - first.size());
        std::ranges::set_difference(std::views::iota(std::size_t{0}, vectors.size()), first,
                                    std::back_inserter(rest));
        measure(&rest);
      }
    } else {
      measure(nullptr);
    }

    double worst = -1.0;
    std::size_t worst_idx = 0;
    bool any_ok = false;
    const auto take = [&](std::size_t i, double value) {
      any_ok = true;
      if (value > worst) {
        worst = value;
        worst_idx = i;
      }
    };
    if (decided) {
      probe.reduce(&first, take);
      ctx.report.add_decided_early(vectors.size() - first.size());
    } else {
      probe.reduce(nullptr, take);
      top = worst_indices(deg, kDefaultBatch);
    }
    if (!any_ok) {
      // Keep the first failure's code: an all-cancelled probe surfaces as
      // kCancelled so callers distinguish "interrupted" from "diverged".
      throw NumericalError({deg[0].failure.code, "size_for_degradation",
                            "every vector failed at probe W/L=" + std::to_string(wl) +
                                " (first: " + deg[0].failure.message() + ")"});
    }
    ++probes;
    return std::pair<double, std::size_t>{worst, worst_idx};
  };

  // The wl_max probe always runs in full: its worst value is reported.
  auto [deg_max, idx_max] = worst_at(bounds.wl_max, std::nullopt);
  record_state(1, bounds.wl_min, bounds.wl_max, deg_max, idx_max);
  if (deg_max < 0.0) {
    // Nothing toggled the outputs even at wl_max: every probe would read
    // -1, and bisection would return wl_max as if it met the target.
    if (ctx.cancel.requested()) {
      throw NumericalError({FailureCode::kCancelled, "sizing::size_for_degradation",
                            "cancelled before any vector toggled the outputs"});
    }
    throw NumericalError({FailureCode::kInvalidArgument, "sizing::size_for_degradation",
                          "no vector toggles the outputs at W/L=" +
                              std::to_string(bounds.wl_max)});
  }
  if (deg_max > target_pct) {
    throw NumericalError("size_for_degradation: even W/L=" + std::to_string(bounds.wl_max) +
                         " degrades " + std::to_string(deg_max) + "% > target");
  }
  auto [deg_min, idx_min] = worst_at(bounds.wl_min, idx_max);
  record_state(2, bounds.wl_min, bounds.wl_max, deg_max, idx_max);
  if (deg_min >= 0.0 && deg_min <= target_pct) {
    return {bounds.wl_min, deg_min, vectors[idx_min]};
  }

  // Bisection in log space.  It assumes only that the worst case over all
  // vectors passes at `hi`, which every accepted probe measured: the
  // answer is a measured pass within wl_tol of a measured fail.  It is the
  // smallest passing W/L when that worst case falls monotonically in W/L;
  // single vectors' degradations need not, and some do not.
  double lo = bounds.wl_min, hi = bounds.wl_max;
  double hi_deg = deg_max;
  std::size_t hi_idx = idx_max;
  while (hi - lo > bounds.wl_tol) {
    const double mid = std::sqrt(lo * hi);
    const auto [deg, idx] = worst_at(mid, hi_idx);
    if (deg >= 0.0 && deg <= target_pct) {
      hi = mid;
      hi_deg = deg;
      hi_idx = idx;
    } else {
      lo = mid;
    }
    record_state(3, lo, hi, hi_deg, hi_idx);
  }
  return {hi, hi_deg, vectors[hi_idx]};
}

VectorDelay search_worst_vector(const EvalBackend& backend, double wl, int samples, Rng& rng,
                                const EvalSession& session) {
  require(samples >= 1, "search_worst_vector: need at least one sample");
  RunCtx ctx(session);
  const int n = static_cast<int>(backend.netlist().inputs().size());
  ResultSink* sink = session.sink;
  // Transition-content keys, so a candidate revisited by the greedy walk
  // (or by a resumed run) replays instead of re-running.
  const ItemKeys keys(ctx.keyed, "search", backend, wl);
  if (!ctx.cancel.requested()) backend.prepare_wl(wl);

  // Sample pass: the RNG draws stay serial (reproducible from the seed);
  // the scoring -- absolute MTCMOS delay, what the designer must cover --
  // fans out through the batch memo, and the serial first-maximum
  // reduction, which skips failed samples, keeps the winner identical for
  // any thread count.  The sink flushes once, after the refinement.
  const std::vector<VectorPair> sampled = sampled_vector_pairs(n, samples, rng);
  Sweep<double> scores(ctx, keys, sampled);
  const std::vector<std::size_t>* todo = scores.replay(nullptr);
  DelayMemo memo(ctx, backend, sampled, wl, todo, /*with_baseline=*/false);
  scores.evaluate(todo, [&](std::size_t i) { return memo.at_wl(i); }, memo.grain());
  VectorPair best;
  double best_score = -1.0;
  scores.reduce(
      nullptr,
      [&](std::size_t i, double score) {
        if (score > best_score) {
          best_score = score;
          best = sampled[i];
        }
      },
      /*flush=*/false);
  if (best_score <= 0.0 && ctx.cancel.requested()) {
    throw NumericalError({FailureCode::kCancelled, "sizing::search_worst_vector",
                          "cancelled before any sample completed"});
  }
  require(best_score > 0.0, "search_worst_vector: no sampled vector toggles the outputs");

  // Greedy single-bit-flip refinement on both endpoints of the transition.
  // It stays scalar: each candidate derives from the current best, so it
  // depends on the previous candidate's verdict.  Candidates continue the
  // fault-injection scope numbering after the samples; a failed candidate
  // simply counts as no-improvement.
  std::size_t cand_index = sampled.size();
  bool improved = true;
  int rounds = 0;
  while (improved && rounds++ < 32 && !ctx.cancel.requested()) {
    improved = false;
    for (int side = 0; side < 2; ++side) {
      for (int bit = 0; bit < n; ++bit) {
        VectorPair cand = best;
        auto& vec = (side == 0) ? cand.v0 : cand.v1;
        vec[static_cast<std::size_t>(bit)] = !vec[static_cast<std::size_t>(bit)];
        const std::string key = keys.key(cand);
        const Outcome<double> s =
            run_keyed<double>(ctx, cand_index, key, [&] { return backend.delay_at_wl(cand, wl); });
        if (!ctx.admit(cand_index++, s)) continue;
        if (sink != nullptr) sink->on_value(key, *s.value);
        if (*s.value > best_score) {
          best_score = *s.value;
          best = std::move(cand);
          improved = true;
        }
      }
    }
  }

  VectorDelay out;
  out.pair = best;
  out.delay_mtcmos = best_score;
  out.delay_cmos = backend.delay_baseline(best);
  out.degradation_pct = (out.delay_cmos > 0.0)
                            ? (out.delay_mtcmos - out.delay_cmos) / out.delay_cmos * 100.0
                            : -1.0;
  if (sink != nullptr) sink->flush();
  return out;
}

std::vector<VectorPair> screen_vectors(const netlist::Netlist& nl,
                                       std::vector<VectorPair> candidates, std::size_t keep,
                                       const EvalSession& session) {
  require(keep >= 1, "screen_vectors: keep must be >= 1");
  RunCtx ctx(session);
  // Logic-level screening involves no backend: key on the bare netlist.
  const ItemKeys keys =
      ctx.keyed ? ItemKeys("screen", "logic", netlist_fingerprint(nl, {}), std::nullopt)
                : ItemKeys();
  // Chunked dispatch: falling_discharge_weight is cheap relative to a
  // pool task handoff, so workers claim session.batch candidates per
  // pool index instead of one.  Slots stay index-addressed and run_item
  // still runs per item (scope stamps, checkpoint keys unchanged), so
  // the ranking is identical for any thread count or chunk size.
  Sweep<double> weights(ctx, keys, candidates);
  weights.evaluate(
      weights.replay(nullptr),
      [&](std::size_t i) { return falling_discharge_weight(nl, candidates[i]); },
      std::max<std::size_t>(1, session.batch == 0 ? kDefaultBatch : session.batch));
  std::vector<std::pair<double, std::size_t>> scored;
  scored.reserve(candidates.size());
  weights.reduce(nullptr, [&](std::size_t i, double weight) { scored.emplace_back(weight, i); });
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<VectorPair> out;
  for (std::size_t i = 0; i < keep && i < scored.size(); ++i) {
    out.push_back(std::move(candidates[scored[i].second]));
  }
  return out;
}

VerifyResult verify_sizing(const EvalBackend& fast, const EvalBackend& reference,
                           const SizingResult& result, double target_pct,
                           const EvalSession& session) {
  RunCtx ctx(session);
  const VectorPair& vp = result.binding_vector;
  require(!vp.v0.empty() && vp.v0.size() == vp.v1.size(),
          "verify_sizing: result carries no binding vector");

  VerifyResult out;
  out.wl = result.wl;
  out.ok = true;

  // Four measurements, item-indexed 0..3 so fault-injection plans and the
  // session report can address each one.
  struct Probe {
    const EvalBackend* backend;
    bool baseline;
    double* slot;
  };
  const Probe probes[] = {
      {&fast, true, &out.fast_baseline_delay},
      {&fast, false, &out.fast_delay},
      {&reference, true, &out.reference_baseline_delay},
      {&reference, false, &out.reference_delay},
  };
  ResultSink* sink = session.sink;
  for (std::size_t i = 0; i < 4; ++i) {
    const Probe& p = probes[i];
    const std::string key =
        ItemKeys(ctx.keyed, p.baseline ? "verify-baseline" : "verify-wl", *p.backend, result.wl)
            .key(vp);
    const Outcome<double> o = run_keyed<double>(ctx, i, key, [&] {
      return p.baseline ? p.backend->delay_baseline(vp)
                        : p.backend->delay_at_wl(vp, result.wl);
    });
    if (!ctx.admit(i, o)) {
      if (out.ok) {
        out.ok = false;
        out.failure = o.failure;
      }
      continue;
    }
    if (sink != nullptr) sink->on_value(key, *o.value);
    *p.slot = *o.value;
  }
  if (sink != nullptr) sink->flush();

  auto degradation = [](double base, double at_wl) {
    return (base > 0.0 && at_wl > 0.0) ? (at_wl - base) / base * 100.0 : -1.0;
  };
  out.fast_degradation_pct = degradation(out.fast_baseline_delay, out.fast_delay);
  out.reference_degradation_pct =
      degradation(out.reference_baseline_delay, out.reference_delay);
  if (out.ok && (out.fast_degradation_pct < 0.0 || out.reference_degradation_pct < 0.0)) {
    out.ok = false;
    out.failure = {FailureCode::kUnknown, "verify_sizing",
                   "binding vector does not toggle the outputs on both backends"};
  }
  if (out.ok) {
    out.delta_pct = out.reference_degradation_pct - out.fast_degradation_pct;
    out.reference_meets_target =
        target_pct > 0.0 && out.reference_degradation_pct <= target_pct;
  }
  return out;
}

}  // namespace mtcmos::sizing
