#include "sizing/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <initializer_list>
#include <sstream>
#include <system_error>
#include <type_traits>

#include "netlist/io.hpp"
#include "sizing/result_sink.hpp"
#include "util/error.hpp"
#include "util/faultinject.hpp"

namespace mtcmos::sizing {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a_double(double v, std::uint64_t seed) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  return fnv1a(&bits, sizeof(bits), seed);
}

char* put_hex64(char* out, std::uint64_t v) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) *out++ = kHex[(v >> shift) & 0xFu];
  return out;
}

std::string double_bits(double v) { return hex64(std::bit_cast<std::uint64_t>(v)); }

bool parse_double_bits(const std::string& token, double& out) {
  std::uint64_t bits = 0;
  if (std::sscanf(token.c_str(), "%" SCNx64, &bits) != 1) return false;
  out = std::bit_cast<double>(bits);
  return true;
}

void append_bits(std::string& out, const std::vector<bool>& bits) {
  for (const bool b : bits) out += b ? '1' : '0';
}

// "<v0-bits>-<v1-bits>": the transition part of an item key.
void append_transition(std::string& out, const VectorPair& vp) {
  append_bits(out, vp.v0);
  out += '-';
  append_bits(out, vp.v1);
}

[[noreturn]] void throw_corrupt(std::string_view key) {
  // A CRC-valid record that fails typed decoding means the journal was
  // produced by an incompatible writer, not torn by a crash: refuse to
  // resume rather than silently recompute half the run.
  throw NumericalError({FailureCode::kInvalidArgument, "sizing::Checkpoint",
                        "undecodable checkpoint record for key '" + std::string(key) +
                            "' (journal written by an incompatible run?)"});
}

/// "fail <attempts> <code> <site-len> <site><context>"
template <typename T>
std::string encode_failure(const Outcome<T>& o) {
  std::string out = "fail " + std::to_string(o.attempts) + " " +
                    std::to_string(static_cast<int>(o.failure.code)) + " " +
                    std::to_string(o.failure.site.size()) + " ";
  out += o.failure.site;
  out += o.failure.context;
  return out;
}

template <typename T>
bool decode_failure(const std::string& value, Outcome<T>& out) {
  int attempts = 0, code = 0;
  std::size_t site_len = 0;
  int consumed = 0;
  if (std::sscanf(value.c_str(), "fail %d %d %zu %n", &attempts, &code, &site_len, &consumed) !=
      3) {
    return false;
  }
  // %n lands after the trailing space unless site+context is empty, in
  // which case the scan stops at the end of the length field.
  std::size_t payload = static_cast<std::size_t>(consumed);
  if (payload > value.size() || value.size() - payload < site_len) return false;
  FailureInfo info;
  info.code = static_cast<FailureCode>(code);
  info.site = value.substr(payload, site_len);
  info.context = value.substr(payload + site_len);
  info.attempts = attempts;
  out = Outcome<T>::fail(std::move(info));
  out.attempts = attempts;
  return true;
}

/// A success record: "ok <attempts>" then one 16-hex-digit double bit
/// pattern per field, space-separated.
constexpr std::size_t kMaxOkValue = 3 + 11 + 3 * 17;

std::string_view encode_ok(char (&buf)[kMaxOkValue], int attempts,
                           std::initializer_list<double> fields) {
  char* p = buf;
  *p++ = 'o';
  *p++ = 'k';
  *p++ = ' ';
  p = std::to_chars(p, buf + kMaxOkValue, attempts).ptr;
  for (const double f : fields) {
    *p++ = ' ';
    p = put_hex64(p, std::bit_cast<std::uint64_t>(f));
  }
  return {buf, static_cast<std::size_t>(p - buf)};
}

/// Parse a success record into `attempts` and `N` doubles.  Like the
/// scanf format it replaces, anything after the last field is ignored.
template <std::size_t N>
bool decode_ok(std::string_view value, int& attempts, std::array<double, N>& fields) {
  if (!value.starts_with("ok ")) return false;
  const char* p = value.data() + 3;
  const char* const end = value.data() + value.size();
  auto [next, ec] = std::from_chars(p, end, attempts);
  if (ec != std::errc()) return false;
  for (double& f : fields) {
    if (next == end || *next != ' ') return false;
    std::uint64_t bits = 0;
    const auto parsed = std::from_chars(next + 1, end, bits, 16);
    if (parsed.ec != std::errc()) return false;
    f = std::bit_cast<double>(bits);
    next = parsed.ptr;
  }
  return true;
}

template <typename T>
bool decode(std::string_view key, std::string_view value, Outcome<T>& out) {
  int attempts = 0;
  if constexpr (std::is_same_v<T, double>) {
    std::array<double, 1> f;
    if (decode_ok(value, attempts, f)) {
      out = Outcome<double>::success(f[0], attempts);
      return true;
    }
  } else {
    std::array<double, 3> f;
    if (decode_ok(value, attempts, f)) {
      VectorDelay vd;  // pair is re-attached by the sweep (it is in the key)
      vd.delay_cmos = f[0];
      vd.delay_mtcmos = f[1];
      vd.degradation_pct = f[2];
      out = Outcome<VectorDelay>::success(std::move(vd), attempts);
      return true;
    }
  }
  if (decode_failure(std::string(value), out)) return true;
  throw_corrupt(key);
}

template <typename T>
void stage_outcome(util::JournalBatch& batch, std::string_view key, const Outcome<T>& outcome,
                   std::int64_t scope) {
  if (outcome.ok()) {
    char buf[kMaxOkValue];
    if constexpr (std::is_same_v<T, double>) {
      batch.add(key, encode_ok(buf, outcome.attempts, {*outcome.value}), scope);
    } else {
      const VectorDelay& vd = *outcome.value;
      batch.add(key,
                encode_ok(buf, outcome.attempts,
                          {vd.delay_cmos, vd.delay_mtcmos, vd.degradation_pct}),
                scope);
    }
  } else if (Checkpoint::should_persist(outcome.failure)) {
    batch.add(key, encode_failure(outcome), scope);
  }
}

}  // namespace

void Checkpoint::open(const std::string& path, util::JournalOptions options) {
  journal_.open(path, options);
}

void Checkpoint::bind_meta(const std::string& name, const std::string& value) {
  if (!armed()) return;
  const std::string key = "meta:" + name;
  if (const util::JournalValue existing = journal_.find(key)) {
    if (*existing != value) {
      throw NumericalError(
          {FailureCode::kInvalidArgument, "sizing::Checkpoint",
           "journal '" + journal_.path() + "' was written by a different run: meta '" + name +
               "' is '" + std::string(*existing) + "' there but '" + value +
               "' now (use a fresh checkpoint directory or rerun with the original settings)"});
    }
    return;
  }
  journal_.append(key, value);
}

bool Checkpoint::lookup(std::string_view key, Outcome<double>& out) const {
  if (!armed()) return false;
  const util::JournalValue value = journal_.find(key);
  return value && decode(key, *value, out);
}

bool Checkpoint::lookup(std::string_view key, Outcome<VectorDelay>& out) const {
  if (!armed()) return false;
  const util::JournalValue value = journal_.find(key);
  return value && decode(key, *value, out);
}

void Checkpoint::stage(util::JournalBatch& batch, std::string_view key,
                       const Outcome<double>& outcome, std::int64_t scope) {
  stage_outcome(batch, key, outcome, scope);
}

void Checkpoint::stage(util::JournalBatch& batch, std::string_view key,
                       const Outcome<VectorDelay>& outcome, std::int64_t scope) {
  stage_outcome(batch, key, outcome, scope);
}

void Checkpoint::append(const util::JournalBatch& batch) { journal_.append_batch(batch); }

void Checkpoint::record(std::string_view key, const Outcome<double>& outcome) {
  if (!armed()) return;
  util::JournalBatch batch;
  stage(batch, key, outcome, faultinject::current_scope());
  append(batch);
}

void Checkpoint::record(std::string_view key, const Outcome<VectorDelay>& outcome) {
  if (!armed()) return;
  util::JournalBatch batch;
  stage(batch, key, outcome, faultinject::current_scope());
  append(batch);
}

void Checkpoint::record_failure(std::string_view key, const FailureInfo& info) {
  record(key, Outcome<double>::fail(info));
}

bool Checkpoint::lookup_bisect(const std::string& key, BisectState& out) const {
  if (!armed()) return false;
  const util::JournalValue value = journal_.find(key);
  if (!value) return false;
  char lo[32], hi[32], deg[32];
  BisectState s;
  if (std::sscanf(std::string(*value).c_str(), "bs %d %31s %31s %31s %zu %zu", &s.phase, lo, hi, deg,
                  &s.hi_idx, &s.probes) != 6 ||
      !parse_double_bits(lo, s.lo) || !parse_double_bits(hi, s.hi) ||
      !parse_double_bits(deg, s.hi_deg)) {
    throw_corrupt(key);
  }
  out = s;
  return true;
}

void Checkpoint::record_bisect(const std::string& key, const BisectState& state) {
  if (!armed()) return;
  journal_.append(key, "bs " + std::to_string(state.phase) + " " + double_bits(state.lo) + " " +
                           double_bits(state.hi) + " " + double_bits(state.hi_deg) + " " +
                           std::to_string(state.hi_idx) + " " + std::to_string(state.probes));
}

bool Checkpoint::should_persist(const FailureInfo& failure) {
  if (failure.code == FailureCode::kCancelled) return false;
  if (failure.code == FailureCode::kDeadlineExceeded &&
      (failure.site == "sizing::sweep_item" || failure.site == "sizing::watchdog")) {
    return false;
  }
  return true;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[16];
  return {buf, put_hex64(buf, v)};
}

std::string bits_string(const std::vector<bool>& bits) {
  std::string out;
  out.reserve(bits.size());
  append_bits(out, bits);
  return out;
}

std::uint64_t netlist_fingerprint(const netlist::Netlist& nl,
                                  const std::vector<std::string>& outputs) {
  std::ostringstream os;
  netlist::write_netlist(os, nl, outputs);
  const std::string text = os.str();
  return fnv1a(text.data(), text.size());
}

bool ItemKeys::needed(const Checkpoint* checkpoint, const ResultSink* sink) {
  return (checkpoint != nullptr && checkpoint->armed()) || (sink != nullptr && sink->wants_keys());
}

ItemKeys::ItemKeys(const char* op, const char* backend_name, std::uint64_t fingerprint,
                   std::optional<double> wl)
    : prefix_(std::string(op) + ":" + backend_name + ":" + hex64(fingerprint) + ":") {
  if (wl) prefix_ += double_bits(*wl) + ":";
}

ItemKeys::ItemKeys(bool on, const char* op, const EvalBackend& backend,
                   std::optional<double> wl) {
  if (on) {
    *this = ItemKeys(op, backend.name(), netlist_fingerprint(backend.netlist(), backend.outputs()),
                     wl);
  }
}

std::string ItemKeys::key(const VectorPair& vp) const {
  std::string key(size(vp), '\0');
  write(vp, key.data());
  return key;
}

char* ItemKeys::write(const VectorPair& vp, char* out) const {
  if (!on()) return out;
  out = std::copy(prefix_.begin(), prefix_.end(), out);
  for (const bool b : vp.v0) *out++ = b ? '1' : '0';
  *out++ = '-';
  for (const bool b : vp.v1) *out++ = b ? '1' : '0';
  return out;
}

std::uint64_t sizing_args_hash(std::uint64_t fingerprint, const char* backend_name,
                               const std::vector<VectorPair>& vectors, double target_pct,
                               double wl_min, double wl_max, double wl_tol) {
  std::uint64_t h = fingerprint;
  h = fnv1a(backend_name, std::string(backend_name).size(), h);
  h = fnv1a_double(target_pct, h);
  h = fnv1a_double(wl_min, h);
  h = fnv1a_double(wl_max, h);
  h = fnv1a_double(wl_tol, h);
  for (const VectorPair& vp : vectors) {
    std::string bits;
    append_transition(bits, vp);
    h = fnv1a(bits.data(), bits.size(), h);
  }
  return h;
}

}  // namespace mtcmos::sizing
