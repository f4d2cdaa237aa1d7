#include "util/journal.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <exception>
#include <mutex>
#include <new>
#include <stdexcept>
#include <system_error>
#include <utility>

#include "util/faultinject.hpp"

namespace mtcmos::util {

namespace {

[[noreturn]] void throw_errno(const std::string& what, const std::string& path) {
  throw std::runtime_error("journal: " + what + " '" + path + "': " + std::strerror(errno));
}

/// write() the whole buffer, retrying short writes and EINTR (the cancel
/// signal handlers install without SA_RESTART).
void write_all(int fd, const char* data, std::size_t size, const std::string& path) {
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write failed", path);
    }
    done += static_cast<std::size_t>(n);
  }
}

void fsync_retry(int fd, const std::string& path) {
  while (::fsync(fd) != 0) {
    if (errno != EINTR) throw_errno("fsync failed", path);
  }
}

/// fsync the containing directory so a freshly created or renamed file is
/// durable: the rename in compact() only persists once the *directory*
/// entry reaches disk, and a crash between the rename and the directory
/// sync can lose the whole journal on some filesystems.  EINTR is retried
/// (the cancel signal handlers install without SA_RESTART); other errors
/// stay best-effort since not every filesystem supports directory fsync.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  int dfd;
  do {
    dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  } while (dfd < 0 && errno == EINTR);
  if (dfd < 0) return;  // best effort: not all filesystems allow it
  while (::fsync(dfd) != 0 && errno == EINTR) {
  }
  ::close(dfd);
}

constexpr std::size_t kReplayBuffer = std::size_t{1} << 20;

// KeyIndex arena: blocks of 2^17 8-byte units (1 MiB), except that an
// entry larger than that gets a block of its own.  An entry's position is
// its block index << kBlockShift | its unit offset, and a slot keeps
// position + 1 (0 = empty) in its low kPosBits, under a kTagBits digest
// tag.  The block limit keeps position + 1 within kPosBits: 8 TiB of
// arena, far past any memory the index could be given.
constexpr unsigned kBlockShift = 17;
constexpr std::size_t kBlockUnits = std::size_t{1} << kBlockShift;
constexpr unsigned kPosBits = 40;
constexpr unsigned kTagBits = 64 - kPosBits;
constexpr std::uint64_t kPosMask = (std::uint64_t{1} << kPosBits) - 1;
constexpr std::size_t kMaxBlocks = (std::size_t{1} << (kPosBits - kBlockShift)) - 1;

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

char* put_varint(char* out, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) *out++ = static_cast<char>((v & 0x7Fu) | 0x80u);
  *out++ = static_cast<char>(v);
  return out;
}

const char* get_varint(const char* in, std::uint64_t& v) {
  v = 0;
  for (unsigned shift = 0;; shift += 7) {
    const auto byte = static_cast<unsigned char>(*in++);
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if (byte < 0x80) return in;
  }
}

/// A key's prefix (through its last ':', empty without one) and suffix.
std::pair<std::string_view, std::string_view> split_key(std::string_view key) {
  const std::size_t colon = key.rfind(':');
  if (colon == std::string_view::npos) return {{}, key};
  return {key.substr(0, colon + 1), key.substr(colon + 1)};
}

// Slicing-by-8 tables: kCrcTables[0] is the byte-wise table, and
// kCrcTables[k][b] advances kCrcTables[k-1][b] by one more zero byte.
constexpr auto kCrcTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
  }
  return t;
}();

std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

char* append_decimal(char* out, std::size_t v) {
  char digits[20];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) *out++ = digits[--n];
  return out;
}

/// "J1 %08x %zu %zu\n" into `out` (at least kMaxHeader bytes); returns
/// the end.
constexpr std::size_t kMaxHeader = 3 + 8 + 1 + 20 + 1 + 20 + 1;
char* format_header(char* out, std::uint32_t crc, std::size_t key_size, std::size_t value_size) {
  static constexpr char kHex[] = "0123456789abcdef";
  *out++ = 'J';
  *out++ = '1';
  *out++ = ' ';
  for (int shift = 28; shift >= 0; shift -= 4) *out++ = kHex[(crc >> shift) & 0xFu];
  *out++ = ' ';
  out = append_decimal(out, key_size);
  *out++ = ' ';
  out = append_decimal(out, value_size);
  *out++ = '\n';
  return out;
}

std::uint32_t record_crc(std::string_view key, std::string_view value) {
  return crc32(value.data(), value.size(), crc32(key.data(), key.size()));
}

/// Append one formatted record (header, key, value, newline) to `out`.
void append_record(std::string& out, std::string_view key, std::string_view value) {
  char header[kMaxHeader];
  const char* const header_end = format_header(header, record_crc(key, value), key.size(),
                                               value.size());
  out.append(header, static_cast<std::size_t>(header_end - header));
  out += key;
  out += value;
  out += '\n';
}

/// Parse one header field: an unsigned number in `base` followed by
/// `stop`.  Returns the position after `stop`, or nullptr.
const char* parse_field(const char* p, const char* end, int base, char stop,
                        std::uint64_t& out) {
  const auto [next, ec] = std::from_chars(p, end, out, base);
  if (ec != std::errc() || next == p || next == end || *next != stop) return nullptr;
  return next + 1;
}

enum class Parse { kRecord, kNeedMore, kCorrupt };

/// Parse one record at the start of [data, data + size).  kNeedMore asks
/// for at least `need` bytes (the record may continue past the buffer);
/// kCorrupt marks a torn or corrupt record, where valid history ends.
Parse parse_record(const char* data, std::size_t size, std::size_t& need, std::string_view& key,
                   std::string_view& value) {
  const char* const end = data + size;
  const char* p = data;
  // Header "J1 <crc-hex> <key-bytes> <value-bytes>\n".
  const std::size_t header_max = std::min(size, kMaxHeader);
  if (std::memchr(data, '\n', header_max) == nullptr) {
    if (size >= kMaxHeader) return Parse::kCorrupt;
    need = kMaxHeader;
    return Parse::kNeedMore;
  }
  if (size < 3 || p[0] != 'J' || p[1] != '1' || p[2] != ' ') return Parse::kCorrupt;
  std::uint64_t crc = 0, key_size = 0, value_size = 0;
  p = parse_field(p + 3, end, 16, ' ', crc);
  if (p != nullptr) p = parse_field(p, end, 10, ' ', key_size);
  if (p != nullptr) p = parse_field(p, end, 10, '\n', value_size);
  if (p == nullptr || crc > UINT32_MAX || key_size == 0 || key_size > UINT32_MAX ||
      value_size > UINT32_MAX) {
    return Parse::kCorrupt;
  }
  const std::size_t header = static_cast<std::size_t>(p - data);
  const std::size_t total = header + key_size + value_size + 1;
  if (total > size) {
    need = total;
    return Parse::kNeedMore;
  }
  if (data[total - 1] != '\n') return Parse::kCorrupt;
  key = {p, static_cast<std::size_t>(key_size)};
  value = {p + key_size, static_cast<std::size_t>(value_size)};
  if (record_crc(key, value) != crc) return Parse::kCorrupt;
  need = total;
  return Parse::kRecord;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const auto& t = kCrcTables;
  std::uint32_t crc = ~seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
          t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

std::string format_journal_record(std::string_view key, std::string_view value) {
  std::string record;
  append_record(record, key, value);
  return record;
}

// --- KeyIndex ---

std::uint64_t KeyIndex::default_digest(std::string_view key) {
  return std::hash<std::string_view>{}(key);
}

void KeyIndex::Unmap::operator()(std::uint64_t* units) const { ::munmap(units, bytes); }

KeyIndex::Pages KeyIndex::map_pages(std::size_t units) {
  const std::size_t bytes = units * sizeof(std::uint64_t);
  void* const pages = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
  if (pages == MAP_FAILED) throw std::bad_alloc();
  return Pages(static_cast<std::uint64_t*>(pages), Unmap{bytes});
}

KeyIndex::Entry KeyIndex::entry_at(std::uint64_t slot) const {
  const std::uint64_t pos = (slot & kPosMask) - 1;
  const char* p = reinterpret_cast<const char*>(blocks_[pos >> kBlockShift].get() +
                                                (pos & (kBlockUnits - 1)));
  std::uint64_t prefix, suffix_size, value_size;
  p = get_varint(get_varint(get_varint(p, prefix), suffix_size), value_size);
  return {static_cast<std::uint32_t>(prefix), {p, suffix_size}, {p + suffix_size, value_size}};
}

char* KeyIndex::allocate(std::size_t bytes, std::uint64_t& pos) {
  const std::size_t units = (bytes + 7) / 8;
  if (blocks_.empty() || units > block_units_ - block_used_) {
    if (blocks_.size() >= kMaxBlocks) throw std::length_error("journal: index arena full");
    const std::size_t n = std::max(units, kBlockUnits);
    blocks_.push_back(map_pages(n));
    block_units_ = n;
    block_used_ = 0;
    arena_units_ += n;
  }
  pos = (blocks_.size() - 1) << kBlockShift | block_used_;
  char* const out = reinterpret_cast<char*>(blocks_.back().get() + block_used_);
  block_used_ += units;
  return out;
}

std::uint32_t KeyIndex::intern(std::string_view prefix) {
  if (last_prefix_ < prefixes_.size() && prefixes_[last_prefix_] == prefix) return last_prefix_;
  if (2 * (prefixes_.size() + 1) > prefix_slots_.size()) {
    std::vector<std::uint32_t> slots(prefix_slots_.empty() ? 16 : 2 * prefix_slots_.size());
    const std::size_t mask = slots.size() - 1;
    for (std::size_t id = 0; id < prefixes_.size(); ++id) {
      std::size_t s = std::hash<std::string_view>{}(prefixes_[id]) & mask;
      while (slots[s] != 0) s = (s + 1) & mask;
      slots[s] = static_cast<std::uint32_t>(id + 1);
    }
    prefix_slots_.swap(slots);
  }
  const std::size_t mask = prefix_slots_.size() - 1;
  std::size_t s = std::hash<std::string_view>{}(prefix) & mask;
  for (; prefix_slots_[s] != 0; s = (s + 1) & mask) {
    if (prefixes_[prefix_slots_[s] - 1] == prefix) return last_prefix_ = prefix_slots_[s] - 1;
  }
  if (prefixes_.size() >= UINT32_MAX) throw std::length_error("journal: too many key prefixes");
  std::string_view stored;
  if (!prefix.empty()) {
    std::uint64_t pos;
    char* const bytes = allocate(prefix.size(), pos);
    std::memcpy(bytes, prefix.data(), prefix.size());
    stored = {bytes, prefix.size()};
  }
  prefixes_.push_back(stored);
  prefix_slots_[s] = static_cast<std::uint32_t>(prefixes_.size());
  return last_prefix_ = static_cast<std::uint32_t>(prefixes_.size() - 1);
}

std::uint64_t KeyIndex::store(std::uint32_t prefix, std::string_view suffix,
                              std::string_view value) {
  std::uint64_t pos;
  char* p = allocate(varint_size(prefix) + varint_size(suffix.size()) +
                         varint_size(value.size()) + suffix.size() + value.size(),
                     pos);
  p = put_varint(put_varint(put_varint(p, prefix), suffix.size()), value.size());
  std::memcpy(p, suffix.data(), suffix.size());
  std::memcpy(p + suffix.size(), value.data(), value.size());
  return pos + 1;
}

std::size_t KeyIndex::probe(std::uint64_t digest, std::string_view prefix,
                            std::string_view suffix) const {
  const std::uint64_t tag = digest >> kPosBits;
  const std::size_t mask = slot_count() - 1;
  for (std::size_t s = digest >> (64 - slot_bits_);; s = (s + 1) & mask) {
    const std::uint64_t slot = slots_[s];
    if (slot == 0) return s;
    if (slot >> kPosBits != tag) continue;
    const Entry e = entry_at(slot);
    if (e.suffix == suffix && prefixes_[e.prefix] == prefix) return s;
  }
}

void KeyIndex::grow() {
  // A key's home slot is the top slot_bits_ bits of its digest, which
  // the tag holds for tables up to 2^kTagBits slots; past that the
  // digest is recomputed from the rebuilt key.
  const std::size_t old_count = slot_count();
  const unsigned bits = slots_ ? slot_bits_ + 1 : 6;
  const Pages old = std::exchange(slots_, map_pages(std::size_t{1} << bits));
  slot_bits_ = bits;
  const std::size_t mask = slot_count() - 1;
  std::string key;
  for (std::size_t o = 0; o < old_count; ++o) {
    const std::uint64_t slot = old[o];
    if (slot == 0) continue;
    std::size_t s;
    if (bits <= kTagBits) {
      s = static_cast<std::size_t>((slot >> kPosBits) >> (kTagBits - bits));
    } else {
      const Entry e = entry_at(slot);
      key.assign(prefixes_[e.prefix]);
      key.append(e.suffix);
      s = digest_(key) >> (64 - bits);
    }
    while (slots_[s] != 0) s = (s + 1) & mask;
    slots_[s] = slot;
  }
}

void KeyIndex::put(std::string_view key, std::string_view value) {
  if (2 * (size_ + 1) > slot_count()) grow();
  const auto [prefix, suffix] = split_key(key);
  const std::uint32_t id = intern(prefix);
  const std::uint64_t digest = digest_(key);
  std::uint64_t& slot = slots_[probe(digest, prefix, suffix)];
  if (slot == 0) ++size_;
  slot = (digest >> kPosBits) << kPosBits | store(id, suffix, value);
}

JournalValue KeyIndex::get(std::string_view key) const {
  if (size_ == 0) return {};
  const auto [prefix, suffix] = split_key(key);
  const std::uint64_t slot = slots_[probe(digest_(key), prefix, suffix)];
  return slot == 0 ? JournalValue() : JournalValue(entry_at(slot).value);
}

void KeyIndex::for_each(const std::function<void(std::string_view, std::string_view)>& fn) const {
  std::string key;
  for (std::size_t s = 0; s < slot_count(); ++s) {
    const std::uint64_t slot = slots_[s];
    if (slot == 0) continue;
    const Entry e = entry_at(slot);
    key.assign(prefixes_[e.prefix]);
    key.append(e.suffix);
    fn(key, e.value);
  }
}

void KeyIndex::clear() { *this = KeyIndex(digest_); }

std::size_t KeyIndex::memory_bytes() const {
  return arena_units_ * sizeof(std::uint64_t) + slot_count() * sizeof(std::uint64_t) +
         blocks_.capacity() * sizeof(blocks_[0]) + prefixes_.capacity() * sizeof(prefixes_[0]) +
         prefix_slots_.capacity() * sizeof(prefix_slots_[0]);
}

// --- JournalBatch ---

void JournalBatch::add(std::string_view key, std::string_view value, std::int64_t scope) {
  if (key.empty()) throw std::invalid_argument("journal: key must not be empty");
  if (key.size() > UINT32_MAX || value.size() > UINT32_MAX) {
    throw std::invalid_argument("journal: record larger than 4 GiB");
  }
  append_record(bytes_, key, value);
  records_.push_back({bytes_.size(), key.size(), value.size(), scope});
}

// --- Journal ---

Journal::~Journal() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; the data already written is intact.
  }
}

void Journal::open(const std::string& path, JournalOptions options) {
  close();
  path_ = path;
  options_ = options;
  index_.clear();
  replayed_records_ = 0;
  truncated_bytes_ = 0;
  appended_since_sync_ = 0;
  last_sync_ = std::chrono::steady_clock::now();

  // O_EXCL-free create-or-open, then probe whether we made the file: a
  // brand-new journal's directory entry must be fsynced too, or a crash
  // shortly after open() can make the first appends vanish with the file.
  const bool existed = ::access(path.c_str(), F_OK) == 0;
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) throw_errno("cannot open", path);
  if (!existed) fsync_parent_dir(path_);

  // Replay: stream the file through a fixed buffer (grown only for a
  // record larger than it), parsing records until the first torn one.
  std::vector<char> buf(kReplayBuffer);
  std::size_t begin = 0, end = 0;  // unparsed bytes in buf
  std::size_t valid = 0;           // file offset just past the last good record
  bool eof = false;
  while (true) {
    std::size_t need = 1;
    std::string_view key, value;
    Parse parsed = Parse::kNeedMore;
    if (begin < end) parsed = parse_record(buf.data() + begin, end - begin, need, key, value);
    if (parsed == Parse::kRecord) {
      index_.put(key, value);
      ++replayed_records_;
      begin += need;
      valid += need;
      continue;
    }
    if (parsed == Parse::kCorrupt || eof) break;
    // Move the partial record to the front, make room for it, read more.
    std::memmove(buf.data(), buf.data() + begin, end - begin);
    end -= begin;
    begin = 0;
    if (need > buf.size()) buf.resize(need);
    const ssize_t n = ::read(fd_, buf.data() + end, buf.size() - end);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("read failed", path);
    }
    if (n == 0) eof = true;
    end += static_cast<std::size_t>(n);
  }
  const off_t size = ::lseek(fd_, 0, SEEK_END);
  if (size < 0) throw_errno("seek failed", path);
  if (static_cast<std::size_t>(size) > valid) {
    // Torn tail from a crash mid-append: drop it so the file is a clean
    // record sequence again before anything is appended after it.
    truncated_bytes_ = static_cast<std::size_t>(size) - valid;
    if (::ftruncate(fd_, static_cast<off_t>(valid)) != 0) throw_errno("truncate failed", path);
    if (::lseek(fd_, 0, SEEK_END) < 0) throw_errno("seek failed", path);
  }
}

void Journal::sync(std::unique_lock<std::shared_mutex>& lock) {
  // Lock order is mutex_ then sync_mutex_; an fsync in flight holds only
  // sync_mutex_, so waiting for it here cannot deadlock.  Once it ends,
  // the fsync below covers every record written so far, including any
  // that one missed.
  std::unique_lock sync_lock(sync_mutex_);
  const std::size_t claimed = appended_since_sync_;
  if (claimed == 0) return;
  appended_since_sync_ = 0;
  last_sync_ = std::chrono::steady_clock::now();
  const int fd = fd_;  // compact() and close() wait for sync_mutex_ before touching it
  lock.unlock();
  try {
    fsync_retry(fd, path_);
  } catch (...) {
    // Unclaim, so the next flush() or close() syncs again.
    sync_lock.unlock();
    lock.lock();
    appended_since_sync_ += claimed;
    throw;
  }
}

void Journal::append(std::string_view key, std::string_view value) {
  JournalBatch batch;
  batch.add(key, value, faultinject::current_scope());
  append_batch(batch);
}

void Journal::append_batch(const JournalBatch& batch) {
  if (batch.empty()) return;
  std::unique_lock lock(mutex_);
  if (fd_ < 0) throw std::runtime_error("journal: append on a closed journal");
  // Fault checks first, each under its record's scope: a fault keeps the
  // records before it and drops it and every record after it.
  std::size_t count = 0;
  std::exception_ptr fault;
  for (; count < batch.records_.size(); ++count) {
    const faultinject::ScopedScope scope(batch.records_[count].scope);
    try {
      faultinject::check(faultinject::Site::kJournalAppend, "util::Journal::append");
    } catch (...) {
      fault = std::current_exception();
      break;
    }
  }
  if (count > 0) {
    write_all(fd_, batch.bytes_.data(), batch.records_[count - 1].end, path_);
    for (std::size_t r = 0; r < count; ++r) {
      const JournalBatch::Record& rec = batch.records_[r];
      const char* const payload = batch.bytes_.data() + rec.end - 1 - rec.value_size - rec.key_size;
      index_.put({payload, rec.key_size}, {payload + rec.key_size, rec.value_size});
    }
    appended_since_sync_ += count;
    // fsync narrows kernel-crash exposure only (the write() above already
    // survives process death), so it is rate-limited: the count trigger
    // is opt-in, the time trigger caps both exposure and overhead.
    bool due = options_.fsync_every > 0 && appended_since_sync_ >= options_.fsync_every;
    if (!due && options_.fsync_interval_s > 0.0) {
      due = std::chrono::duration<double>(std::chrono::steady_clock::now() - last_sync_)
                .count() >= options_.fsync_interval_s;
    }
    if (due) sync(lock);
  }
  if (fault) std::rethrow_exception(fault);
}

void Journal::flush() {
  std::unique_lock lock(mutex_);
  if (fd_ >= 0) sync(lock);
}

void Journal::close() {
  const std::unique_lock lock(mutex_);
  if (fd_ < 0) return;
  const std::lock_guard sync_lock(sync_mutex_);  // waits out an fsync in flight
  if (appended_since_sync_ > 0) fsync_retry(fd_, path_);
  appended_since_sync_ = 0;
  ::close(fd_);
  fd_ = -1;
}

JournalValue Journal::find(std::string_view key) const {
  const std::shared_lock lock(mutex_);
  return index_.get(key);
}

std::size_t Journal::size() const {
  const std::shared_lock lock(mutex_);
  return index_.size();
}

void Journal::for_each(
    const std::function<void(const std::string&, const std::string&)>& fn) const {
  const std::shared_lock lock(mutex_);
  std::string key, value;
  index_.for_each([&](std::string_view k, std::string_view v) {
    key.assign(k);
    value.assign(v);
    fn(key, value);
  });
}

void Journal::compact() {
  const std::unique_lock lock(mutex_);
  if (fd_ < 0) throw std::runtime_error("journal: compact on a closed journal");
  const std::lock_guard sync_lock(sync_mutex_);  // no fsync of fd_ in flight
  const std::string tmp_path = path_ + ".compact.tmp";
  const int tmp_fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp_fd < 0) throw_errno("cannot open", tmp_path);
  try {
    std::string chunk;
    index_.for_each([&](std::string_view key, std::string_view value) {
      append_record(chunk, key, value);
      if (chunk.size() >= kReplayBuffer) {
        write_all(tmp_fd, chunk.data(), chunk.size(), tmp_path);
        chunk.clear();
      }
    });
    write_all(tmp_fd, chunk.data(), chunk.size(), tmp_path);
    fsync_retry(tmp_fd, tmp_path);
  } catch (...) {
    ::close(tmp_fd);
    ::unlink(tmp_path.c_str());
    throw;
  }
  ::close(tmp_fd);
  // Atomic replacement: a crash before the rename leaves the old journal,
  // after it the compacted one -- never a mix.
  if (::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    throw_errno("rename failed", tmp_path);
  }
  fsync_parent_dir(path_);
  // Swap the fd to the new file and position at its end.  The index and
  // its arena stay as they are, so views handed out earlier stay valid.
  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_RDWR | O_CLOEXEC);
  if (fd_ < 0) throw_errno("cannot reopen", path_);
  if (::lseek(fd_, 0, SEEK_END) < 0) throw_errno("seek failed", path_);
  appended_since_sync_ = 0;
  last_sync_ = std::chrono::steady_clock::now();
}

std::size_t merge_journal_file(Journal& dest, const std::string& source_path,
                               const std::function<bool(const std::string& key)>& skip) {
  // Journal::open O_CREATs; probe first so a missing source is an error
  // instead of a silently-created empty journal.
  if (::access(source_path.c_str(), F_OK) != 0) {
    throw std::runtime_error("merge_journal_file: no such journal: " + source_path);
  }
  Journal source;
  source.open(source_path);
  source.close();
  // Sorted visit: the merged file's byte contents depend only on the
  // record *sets*, not on hash-map iteration order.
  std::vector<std::pair<std::string, std::string>> records;
  records.reserve(source.size());
  source.for_each([&](const std::string& key, const std::string& value) {
    if (skip && skip(key)) return;
    records.emplace_back(key, value);
  });
  std::sort(records.begin(), records.end());
  std::size_t appended = 0;
  for (const auto& [key, value] : records) {
    const JournalValue existing = dest.find(key);
    if (existing && *existing == value) continue;
    dest.append(key, value);
    ++appended;
  }
  return appended;
}

}  // namespace mtcmos::util
