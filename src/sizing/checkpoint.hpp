#pragma once
// Crash-safe checkpointing for sweep sessions.
//
// A Checkpoint wraps a util::Journal and gives the sweep entry points
// (sizing/session.hpp) a typed record store: per-item Outcomes keyed by
// a deterministic item identity -- netlist fingerprint + backend + sweep
// operation + W/L + vector transition -- plus bisection-interval state
// for size_for_degradation.  Because keys are content-derived (never
// "item 37 of this process"), an identical re-invocation of a sweep maps
// every already-completed item to its journaled outcome and skips the
// simulation: a run interrupted at any point and resumed produces
// results and a SweepReport bit-identical to an uninterrupted run.
// Doubles are stored as their exact 64-bit patterns, so replayed values
// round-trip without losing a single ulp.
//
// What is persisted: successes and genuine numerical failures.  Outcomes
// that only describe the *interruption itself* -- kCancelled, and
// kDeadlineExceeded raised by the session deadline or the watchdog --
// are deliberately not persisted, so resuming after a Ctrl-C re-runs the
// cancelled items instead of replaying the cancellation forever.
//
// Run-configuration guard: bind_meta() records named configuration
// strings (target, bounds, seed, ...) on first use and throws a coded
// kInvalidArgument NumericalError when a resume presents different
// values, so a journal can never silently mix two different runs.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"
#include "sizing/backend.hpp"
#include "sizing/eval_types.hpp"
#include "util/failure.hpp"
#include "util/journal.hpp"

namespace mtcmos::sizing {

class ResultSink;  // sizing/result_sink.hpp

/// Progress of a size_for_degradation bisection, journaled after every
/// probe so an interrupted sizing resumes knowing the live W/L interval
/// (diagnostics; the probe *outcomes* themselves replay from the item
/// records, which is what keeps the merged report bit-identical).
struct BisectState {
  int phase = 0;  ///< 1 = wl_max probed, 2 = wl_min probed, 3 = bisecting
  double lo = 0.0;
  double hi = 0.0;
  double hi_deg = 0.0;
  std::size_t hi_idx = 0;
  std::size_t probes = 0;  ///< completed probe sweeps
};

class Checkpoint {
 public:
  Checkpoint() = default;

  /// Open (creating or resuming) the journal at `path`.  Throws
  /// std::runtime_error on I/O failure.
  void open(const std::string& path, util::JournalOptions options = {});
  bool armed() const { return journal_.is_open(); }
  util::Journal& journal() { return journal_; }
  const util::Journal& journal() const { return journal_; }

  /// First call stores `value` under meta name `name`; later calls (and
  /// later runs resuming this journal) throw a kInvalidArgument-coded
  /// NumericalError if `value` differs from the stored one.
  void bind_meta(const std::string& name, const std::string& value);

  /// Typed item records.  lookup returns false when the key is absent
  /// (or the checkpoint is unarmed); record silently skips outcomes that
  /// describe the interruption rather than the item (see header).
  bool lookup(std::string_view key, Outcome<double>& out) const;
  bool lookup(std::string_view key, Outcome<VectorDelay>& out) const;
  void record(std::string_view key, const Outcome<double>& outcome);
  void record(std::string_view key, const Outcome<VectorDelay>& outcome);

  /// record() in two halves, so a sweep can format a chunk of records off
  /// the journal's lock and write them with one append: stage() adds
  /// `outcome`'s record to `batch` under fault-injection scope `scope`
  /// (skipping what record() skips), append() writes the batch.
  static void stage(util::JournalBatch& batch, std::string_view key,
                    const Outcome<double>& outcome, std::int64_t scope);
  static void stage(util::JournalBatch& batch, std::string_view key,
                    const Outcome<VectorDelay>& outcome, std::int64_t scope);
  void append(const util::JournalBatch& batch);

  /// Journal a bare failure under `key` without an Outcome type: the
  /// encoded form is shared by both lookup() overloads, so any sweep
  /// replays it as that item's failure.  The supervisor uses this to
  /// stamp quarantined (kPoisonedItem) items into the merged journal.
  /// Honors should_persist like record().
  void record_failure(std::string_view key, const FailureInfo& info);

  bool lookup_bisect(const std::string& key, BisectState& out) const;
  void record_bisect(const std::string& key, const BisectState& state);

  /// Whether a failed outcome belongs in the journal: interruption
  /// artifacts (kCancelled; session-deadline / watchdog
  /// kDeadlineExceeded) must be re-run on resume, not replayed.
  static bool should_persist(const FailureInfo& failure);

 private:
  util::Journal journal_;
};

/// FNV-1a over `size` bytes, chained from `seed`.  kFnvOffset is not the
/// standard FNV-1a offset basis (a digit short), but fingerprints, item
/// keys and daemon request keys already on disk depend on it.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t seed = kFnvOffset);
/// `v` as 16 lowercase hex digits.
std::string hex64(std::uint64_t v);
/// `bits` as a run of literal '0'/'1' characters.
std::string bits_string(const std::vector<bool>& bits);

/// FNV-1a fingerprint of the canonical .mtn serialization plus the
/// observed outputs: two sweeps share item records iff they evaluate the
/// same circuit through the same observation points.
std::uint64_t netlist_fingerprint(const netlist::Netlist& nl,
                                  const std::vector<std::string>& outputs);

/// The item-key scheme, spelled once:
/// "<op>:<backend>:<fingerprint>:[<wl-bits>:]<v0-bits>-<v1-bits>", the
/// fingerprint as 16 hex digits and W/L as its exact double bits.
/// Checkpoint replay, shard merge, daemon dedup and spilled rows all
/// address an item by this string.  Built once per sweep call (or
/// bisection probe).  Keys nothing consumes are off: key() then returns
/// "" without formatting.
class ItemKeys {
 public:
  /// Whether a sweep's items need keys: only an armed checkpoint and a
  /// key-carrying sink consume them.
  static bool needed(const Checkpoint* checkpoint, const ResultSink* sink);
  /// rank_vectors' keys at `wl`, always on: how the supervisor and the
  /// daemon's dedup address rank items.
  static ItemKeys rank(const EvalBackend& backend, double wl) {
    return {true, "rank", backend, wl};
  }

  ItemKeys() = default;  ///< off
  ItemKeys(const char* op, const char* backend_name, std::uint64_t fingerprint,
           std::optional<double> wl);
  /// Keys for `op` on `backend`, fingerprinted by its netlist and
  /// outputs, when `on`; off (and no fingerprint computed) otherwise.
  ItemKeys(bool on, const char* op, const EvalBackend& backend, std::optional<double> wl);

  bool on() const { return !prefix_.empty(); }
  /// Everything before the transition bits ("" when off).
  const std::string& prefix() const { return prefix_; }
  std::string key(const VectorPair& vp) const;
  /// key(vp)'s length, and key(vp) written to `out` (that many bytes)
  /// returning its end: how a sweep formats many keys into one buffer.
  std::size_t size(const VectorPair& vp) const {
    return on() ? prefix_.size() + vp.v0.size() + 1 + vp.v1.size() : 0;
  }
  char* write(const VectorPair& vp, char* out) const;

 private:
  std::string prefix_;
};

/// Identity of one size_for_degradation invocation: fingerprint +
/// backend + target + bounds + the full vector set.  Used to key the
/// bisection-state record and the run-configuration guard.
std::uint64_t sizing_args_hash(std::uint64_t fingerprint, const char* backend_name,
                               const std::vector<VectorPair>& vectors, double target_pct,
                               double wl_min, double wl_max, double wl_tol);

}  // namespace mtcmos::sizing
