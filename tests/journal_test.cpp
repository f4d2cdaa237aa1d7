// Unit tests for util::Journal: append/replay round-trips, torn-tail
// truncation, update-in-place (last record wins), compaction via atomic
// replacement, and the failure contract (bad keys, closed journals).

#include "util/journal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/faultinject.hpp"

namespace {

using mtcmos::util::format_journal_record;
using mtcmos::util::Journal;
using mtcmos::util::JournalOptions;

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("journal_test." +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "." +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    mtcmos::faultinject::disarm_all();
    std::filesystem::remove_all(dir_);
  }

  std::string path(const std::string& name = "j.mtj") const { return (dir_ / name).string(); }

  std::string slurp(const std::string& p) const {
    std::ifstream is(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
  }

  std::filesystem::path dir_;
};

/// "t<t>:<i>", built by appending: GCC 12 at -O3 reports a -Wrestrict
/// false positive inside `"t" + std::to_string(t) + ...`.
std::string thread_key(int t, int i) {
  std::string key(1, 't');
  key += std::to_string(t);
  key += ':';
  key += std::to_string(i);
  return key;
}

/// A checkpoint item key's shape: a 44-byte "probe:vbs:<fp>:<wl-bits>:"
/// prefix (one per `probe`) and a 17-byte "<v0>-<v1>" suffix.
std::string item_key(unsigned probe, unsigned item) {
  char key[64];
  std::snprintf(key, sizeof(key), "probe:vbs:00f1e2d3c4b5a697:%016x:%08x-%08x", probe, item,
                item ^ 0x5A5Au);
  return key;
}

/// Every (key, value) a journal holds, sorted.
std::vector<std::pair<std::string, std::string>> contents(const Journal& j) {
  std::vector<std::pair<std::string, std::string>> all;
  j.for_each([&](const std::string& key, const std::string& value) {
    all.emplace_back(key, value);
  });
  std::sort(all.begin(), all.end());
  return all;
}

TEST_F(JournalTest, AppendFindRoundTrip) {
  Journal j;
  j.open(path());
  EXPECT_TRUE(j.is_open());
  EXPECT_EQ(j.size(), 0u);
  j.append("alpha", "1");
  j.append("beta", "two");
  ASSERT_NE(j.find("alpha"), nullptr);
  EXPECT_EQ(*j.find("alpha"), "1");
  ASSERT_NE(j.find("beta"), nullptr);
  EXPECT_EQ(*j.find("beta"), "two");
  EXPECT_EQ(j.find("gamma"), nullptr);
  EXPECT_EQ(j.size(), 2u);
}

TEST_F(JournalTest, LaterRecordForSameKeyWins) {
  Journal j;
  j.open(path());
  j.append("k", "first");
  j.append("k", "second");
  EXPECT_EQ(*j.find("k"), "second");
  EXPECT_EQ(j.size(), 1u);
  j.close();

  Journal replayed;
  replayed.open(path());
  EXPECT_EQ(replayed.replayed_records(), 2u);
  EXPECT_EQ(*replayed.find("k"), "second");
  EXPECT_EQ(replayed.size(), 1u);
}

TEST_F(JournalTest, ReplaySurvivesCloseAndReopen) {
  {
    Journal j;
    j.open(path());
    for (int i = 0; i < 100; ++i) j.append("key" + std::to_string(i), std::to_string(i * i));
  }
  Journal j;
  j.open(path());
  EXPECT_EQ(j.replayed_records(), 100u);
  EXPECT_EQ(j.truncated_bytes(), 0u);
  for (int i = 0; i < 100; ++i) {
    ASSERT_NE(j.find("key" + std::to_string(i)), nullptr) << i;
    EXPECT_EQ(*j.find("key" + std::to_string(i)), std::to_string(i * i));
  }
}

TEST_F(JournalTest, BinaryValuesAndNewlinesRoundTrip) {
  Journal j;
  j.open(path());
  const std::string value("line1\nline2\0binary", 18);
  j.append("multi\nline\nkey", value);
  j.close();
  Journal r;
  r.open(path());
  ASSERT_NE(r.find("multi\nline\nkey"), nullptr);
  EXPECT_EQ(*r.find("multi\nline\nkey"), value);
}

TEST_F(JournalTest, TornTailIsTruncatedAtEveryOffset) {
  // Write two good records and one final record, then truncate the file
  // at every byte offset inside the final record: replay must keep the
  // two good records and drop the torn tail.
  {
    Journal j;
    j.open(path());
    j.append("a", "AA");
    j.append("b", "BB");
    j.append("victim", "the torn one");
  }
  const std::string full = slurp(path());
  const std::size_t tail = format_journal_record("victim", "the torn one").size();
  const std::size_t keep = full.size() - tail;
  for (std::size_t cut = keep; cut < full.size(); ++cut) {
    const std::string p = path("torn_" + std::to_string(cut) + ".mtj");
    std::ofstream os(p, std::ios::binary);
    os.write(full.data(), static_cast<std::streamsize>(cut));
    os.close();
    Journal j;
    j.open(p);
    EXPECT_EQ(j.replayed_records(), 2u) << "cut at " << cut;
    EXPECT_EQ(j.truncated_bytes(), cut - keep) << "cut at " << cut;
    EXPECT_EQ(j.find("victim"), nullptr) << "cut at " << cut;
    EXPECT_EQ(*j.find("a"), "AA");
    EXPECT_EQ(*j.find("b"), "BB");
    // The torn bytes are gone from disk: appends after replay start from
    // a clean record boundary.
    j.append("after", "resume");
    j.close();
    Journal r;
    r.open(p);
    EXPECT_EQ(r.replayed_records(), 3u) << "cut at " << cut;
    EXPECT_EQ(*r.find("after"), "resume");
  }
}

TEST_F(JournalTest, CorruptedInteriorByteStopsReplayThere) {
  {
    Journal j;
    j.open(path());
    j.append("a", "AA");
    j.append("b", "BB");
    j.append("c", "CC");
  }
  std::string data = slurp(path());
  // Flip a payload byte of the second record ("b" -> corrupt): its CRC
  // fails, so replay keeps only record one and truncates the rest.
  const std::size_t first = format_journal_record("a", "AA").size();
  const std::string second = format_journal_record("b", "BB");
  data[first + second.size() - 2] ^= 0x01;  // inside the "BB" payload
  {
    std::ofstream os(path(), std::ios::binary);
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  Journal j;
  j.open(path());
  EXPECT_EQ(j.replayed_records(), 1u);
  EXPECT_EQ(*j.find("a"), "AA");
  EXPECT_EQ(j.find("b"), nullptr);
  EXPECT_EQ(j.find("c"), nullptr);
  EXPECT_GT(j.truncated_bytes(), 0u);
}

TEST_F(JournalTest, CompactKeepsLatestValuesOnly) {
  Journal j;
  j.open(path());
  for (int round = 0; round < 10; ++round) {
    for (int k = 0; k < 5; ++k) {
      j.append("key" + std::to_string(k), "round" + std::to_string(round));
    }
  }
  const auto before = std::filesystem::file_size(path());
  j.compact();
  const auto after = std::filesystem::file_size(path());
  EXPECT_LT(after, before);
  EXPECT_EQ(j.size(), 5u);
  for (int k = 0; k < 5; ++k) EXPECT_EQ(*j.find("key" + std::to_string(k)), "round9");
  // Still appendable after the fd swap, and the result replays.
  j.append("post", "compact");
  j.close();
  Journal r;
  r.open(path());
  EXPECT_EQ(r.replayed_records(), 6u);
  EXPECT_EQ(*r.find("post"), "compact");
  EXPECT_EQ(*r.find("key0"), "round9");
}

TEST_F(JournalTest, EmptyKeyAndClosedJournalThrow) {
  Journal j;
  EXPECT_THROW(j.append("k", "v"), std::runtime_error);  // never opened
  j.open(path());
  EXPECT_THROW(j.append("", "v"), std::invalid_argument);
  j.close();
  EXPECT_THROW(j.append("k", "v"), std::runtime_error);
  EXPECT_THROW(j.compact(), std::runtime_error);
}

TEST_F(JournalTest, FsyncEveryRecordAndNeverBothWork) {
  JournalOptions every;
  every.fsync_every = 1;
  Journal j1;
  j1.open(path("every.mtj"), every);
  j1.append("a", "1");
  j1.append("b", "2");
  j1.close();

  JournalOptions never;
  never.fsync_every = 0;
  never.fsync_interval_s = 0.0;
  Journal j2;
  j2.open(path("never.mtj"), never);
  j2.append("a", "1");
  j2.flush();
  j2.close();

  Journal r;
  r.open(path("every.mtj"));
  EXPECT_EQ(r.replayed_records(), 2u);
  r.open(path("never.mtj"));
  EXPECT_EQ(r.replayed_records(), 1u);
}

TEST_F(JournalTest, ConcurrentAppendsAllSurvive) {
  Journal j;
  j.open(path());
  constexpr int kThreads = 8, kPerThread = 200;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&j, t] {
      for (int i = 0; i < kPerThread; ++i) {
        j.append(thread_key(t, i), std::to_string(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  j.close();
  Journal r;
  r.open(path());
  EXPECT_EQ(r.replayed_records(), static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(r.truncated_bytes(), 0u);
  EXPECT_EQ(r.size(), static_cast<std::size_t>(kThreads * kPerThread));
}

TEST_F(JournalTest, CompactRacingConcurrentAppendsLosesNothing) {
  // compact() swaps the fd under the same mutex append() takes, so an
  // append landing mid-compaction goes to either the old file (then the
  // compaction rewrite includes it) or the new one -- never a torn or
  // dropped record.  Hammer the race, then replay and count.
  Journal j;
  j.open(path());
  constexpr int kThreads = 4, kPerThread = 150;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&j, t] {
      for (int i = 0; i < kPerThread; ++i) {
        j.append(thread_key(t, i), std::to_string(i));
        j.append("hot", std::to_string(t * kPerThread + i));  // contended key
      }
    });
  }
  std::thread compactor([&j] {
    for (int c = 0; c < 25; ++c) {
      j.compact();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& w : workers) w.join();
  compactor.join();
  j.compact();  // final compaction over the quiesced journal
  j.close();

  Journal r;
  r.open(path());
  EXPECT_EQ(r.truncated_bytes(), 0u);
  EXPECT_EQ(r.size(), static_cast<std::size_t>(kThreads * kPerThread) + 1);
  // Compacted: exactly one record per distinct key survives on disk.
  EXPECT_EQ(r.replayed_records(), r.size());
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const auto v = r.find(thread_key(t, i));
      ASSERT_NE(v, nullptr) << thread_key(t, i);
      EXPECT_EQ(*v, std::to_string(i));
    }
  }
  EXPECT_NE(r.find("hot"), nullptr);
}

TEST_F(JournalTest, InjectedAppendFaultLeavesValidJournal) {
  Journal j;
  j.open(path());
  j.append("before", "ok");
  mtcmos::faultinject::arm(mtcmos::faultinject::Site::kJournalAppend,
                           mtcmos::faultinject::kAnyScope, 1);
  EXPECT_THROW(j.append("doomed", "x"), mtcmos::NumericalError);
  j.append("after", "ok");
  j.close();
  Journal r;
  r.open(path());
  EXPECT_EQ(r.replayed_records(), 2u);
  EXPECT_EQ(r.find("doomed"), nullptr);
  EXPECT_EQ(*r.find("before"), "ok");
  EXPECT_EQ(*r.find("after"), "ok");
}

TEST_F(JournalTest, ForEachVisitsLatestPerKey) {
  Journal j;
  j.open(path());
  j.append("x", "old");
  j.append("x", "new");
  j.append("y", "only");
  std::size_t visited = 0;
  j.for_each([&](const std::string& key, const std::string& value) {
    ++visited;
    if (key == "x") {
      EXPECT_EQ(value, "new");
    }
    if (key == "y") {
      EXPECT_EQ(value, "only");
    }
  });
  EXPECT_EQ(visited, 2u);
}

// Durability regression (PR7): a crash right after creating a journal
// must not lose the file itself.  open() O_CREATs the file and then
// fsyncs the PARENT DIRECTORY, so the new directory entry is on disk
// before the first append -- without it, a power cut after open() could
// roll back the file's existence even though appends were fsynced.
// (compact() has the matching ordering: fsync temp file, rename, fsync
// parent dir; and fsync_parent_dir retries EINTR on open and fsync.)
// The durable-ordering side is not observable in a unit test; what is
// observable -- the file existing immediately after open(), before any
// append -- is pinned here.
TEST_F(JournalTest, OpenCreatesTheFileEagerly) {
  const std::string p = path("fresh.mtj");
  ASSERT_FALSE(std::filesystem::exists(p));
  Journal j;
  j.open(p);
  EXPECT_TRUE(std::filesystem::exists(p)) << "directory entry must exist before first append";
  j.append("k", "v");
  j.close();
  Journal again;
  again.open(p);
  ASSERT_NE(again.find("k"), nullptr);
  EXPECT_EQ(*again.find("k"), "v");
}

TEST_F(JournalTest, MergeJournalFileDedupsSkipsAndCounts) {
  Journal source;
  source.open(path("source.mtj"));
  source.append("shared-same", "1");
  source.append("shared-stale", "old");
  source.append("shared-stale", "new");  // latest per key wins
  source.append("hb:0", "beat");
  source.append("fresh", "f");
  source.close();

  Journal dest;
  dest.open(path("dest.mtj"));
  dest.append("shared-same", "1");    // identical -> not re-appended
  dest.append("shared-stale", "old");  // differs -> source's latest appended
  const std::size_t appended = mtcmos::util::merge_journal_file(
      dest, path("source.mtj"),
      [](const std::string& key) { return key.rfind("hb:", 0) == 0; });
  EXPECT_EQ(appended, 2u);  // shared-stale + fresh
  EXPECT_EQ(dest.size(), 3u);
  EXPECT_EQ(*dest.find("shared-same"), "1");
  EXPECT_EQ(*dest.find("shared-stale"), "new");
  EXPECT_EQ(*dest.find("fresh"), "f");
  EXPECT_EQ(dest.find("hb:0"), nullptr);
}

TEST_F(JournalTest, MergeJournalFileAppendsInSortedKeyOrder) {
  Journal source;
  source.open(path("source.mtj"));
  source.append("zeta", "z");
  source.append("alpha", "a");
  source.append("mid", "m");
  source.close();

  Journal dest;
  dest.open(path("dest.mtj"));
  EXPECT_EQ(mtcmos::util::merge_journal_file(dest, path("source.mtj"), {}), 3u);
  dest.close();
  // Sorted visitation makes the merged bytes deterministic regardless of
  // the source's (insertion-ordered) record sequence.
  const std::string bytes = slurp(path("dest.mtj"));
  const auto pos_a = bytes.find(format_journal_record("alpha", "a"));
  const auto pos_m = bytes.find(format_journal_record("mid", "m"));
  const auto pos_z = bytes.find(format_journal_record("zeta", "z"));
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_m, std::string::npos);
  ASSERT_NE(pos_z, std::string::npos);
  EXPECT_LT(pos_a, pos_m);
  EXPECT_LT(pos_m, pos_z);
}

TEST_F(JournalTest, MergeJournalFileTruncatesTornSourceTail) {
  Journal source;
  source.open(path("source.mtj"));
  source.append("whole", "w");
  source.close();
  {
    // Half a record: what a SIGKILL mid-append leaves behind.
    const std::string torn = format_journal_record("torn", "lost");
    std::ofstream os(path("source.mtj"), std::ios::binary | std::ios::app);
    os.write(torn.data(), static_cast<std::streamsize>(torn.size() / 2));
  }
  Journal dest;
  dest.open(path("dest.mtj"));
  EXPECT_EQ(mtcmos::util::merge_journal_file(dest, path("source.mtj"), {}), 1u);
  EXPECT_EQ(*dest.find("whole"), "w");
  EXPECT_EQ(dest.find("torn"), nullptr);
}

TEST_F(JournalTest, MergeJournalFileMissingSourceThrows) {
  Journal dest;
  dest.open(path("dest.mtj"));
  EXPECT_THROW(mtcmos::util::merge_journal_file(dest, path("no-such.mtj"), {}),
               std::runtime_error);
}

TEST(Crc32, KnownAnswerAndChaining) {
  using mtcmos::util::crc32;
  const std::string check = "123456789";
  EXPECT_EQ(crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  // Every split point chains to the one-shot CRC, across the 8-byte
  // steps and the byte-wise tail alike.
  const std::string text = "The quick brown fox jumps over the lazy dog, twice over.";
  const std::uint32_t whole = crc32(text.data(), text.size());
  EXPECT_EQ(whole, 0x75D02603u);  // zlib's crc32 of the same bytes
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    EXPECT_EQ(crc32(text.data() + cut, text.size() - cut, crc32(text.data(), cut)), whole) << cut;
  }
}

TEST_F(JournalTest, BatchWritesTheSameBytesAsSingleAppends) {
  mtcmos::util::JournalBatch batch;
  batch.add("a", "AA", 0);
  batch.add("multi\nline", std::string("x\0y", 3), 1);
  batch.add("a", "newer", 2);
  Journal j;
  j.open(path());
  j.append_batch(batch);
  EXPECT_EQ(*j.find("a"), "newer");
  EXPECT_EQ(j.size(), 2u);
  j.close();
  EXPECT_EQ(slurp(path()), format_journal_record("a", "AA") +
                               format_journal_record("multi\nline", std::string("x\0y", 3)) +
                               format_journal_record("a", "newer"));
  EXPECT_THROW(batch.add("", "v", 0), std::invalid_argument);
}

TEST_F(JournalTest, BatchFaultKeepsOnlyTheRecordsBeforeIt) {
  mtcmos::util::JournalBatch batch;
  for (int i = 0; i < 5; ++i) batch.add("k" + std::to_string(i), "v", /*scope=*/10 + i);
  Journal j;
  j.open(path());
  mtcmos::faultinject::arm(mtcmos::faultinject::Site::kJournalAppend, /*scope=*/12, 1);
  EXPECT_THROW(j.append_batch(batch), mtcmos::NumericalError);
  EXPECT_EQ(j.size(), 2u);
  EXPECT_EQ(j.find("k2"), nullptr);
  j.close();
  Journal r;
  r.open(path());
  EXPECT_EQ(r.replayed_records(), 2u);
  EXPECT_EQ(r.truncated_bytes(), 0u);
  EXPECT_EQ(*r.find("k1"), "v");
  EXPECT_EQ(r.find("k2"), nullptr);
}

TEST_F(JournalTest, FindViewSurvivesConcurrentAppendsOfTheSameKey) {
  // find() hands out a view into the append-only arena: a later append of
  // the same key adds a new entry instead of rewriting the bytes a reader
  // still holds.  Run under TSAN (label tsan) to catch a racy store.
  Journal j;
  j.open(path(), JournalOptions{0.0, 0});
  j.append("hot", "value-0000");
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 1; i < 2000; ++i) {
      char value[16];
      std::snprintf(value, sizeof(value), "value-%04d", i);
      j.append("hot", value);
    }
    stop = true;
  });
  std::size_t reads = 0;
  while (!stop || reads == 0) {
    const auto v = j.find("hot");
    ASSERT_NE(v, nullptr);
    const std::string copy(*v);  // read every byte after the lock is gone
    ASSERT_EQ(copy.size(), 10u);
    ASSERT_EQ(copy.rfind("value-", 0), 0u) << copy;
    ++reads;
  }
  writer.join();
  EXPECT_EQ(*j.find("hot"), "value-1999");
}

TEST(KeyIndex, CollidingDigestsNeverReturnAnotherKeysValue) {
  // Every key digests to the same value: hits must still be decided by
  // the full key bytes -- the suffix within a shared prefix, and the
  // prefix between keys whose suffixes are equal.
  mtcmos::util::KeyIndex index([](std::string_view) -> std::uint64_t { return 42; });
  for (int i = 0; i < 300; ++i) index.put("key" + std::to_string(i), std::to_string(i));
  for (unsigned i = 0; i < 300; ++i) index.put(item_key(1, i), "p1-" + std::to_string(i));
  for (unsigned i = 0; i < 300; ++i) index.put(item_key(2, i), "p2-" + std::to_string(i));
  index.put("key7", "seven");
  index.put(item_key(2, 7), "p2-seven");
  EXPECT_EQ(index.size(), 900u);
  for (unsigned i = 0; i < 300; ++i) {
    const auto v = index.get("key" + std::to_string(i));
    ASSERT_TRUE(v) << i;
    EXPECT_EQ(*v, i == 7 ? "seven" : std::to_string(i));
    const auto v1 = index.get(item_key(1, i));
    ASSERT_TRUE(v1) << i;
    EXPECT_EQ(*v1, "p1-" + std::to_string(i));
    const auto v2 = index.get(item_key(2, i));
    ASSERT_TRUE(v2) << i;
    EXPECT_EQ(*v2, i == 7 ? "p2-seven" : "p2-" + std::to_string(i));
  }
  EXPECT_FALSE(index.get("key300"));
  EXPECT_FALSE(index.get(item_key(1, 300)));
  EXPECT_FALSE(index.get(item_key(3, 0)));
  std::size_t visited = 0;
  index.for_each([&](std::string_view, std::string_view) { ++visited; });
  EXPECT_EQ(visited, 900u);
}

TEST(KeyIndex, PrefixSplitEdgeCases) {
  // The index splits each key at its last ':'.  Keys without one, keys
  // ending in one, a key that is only ':' and keys that differ only in
  // their prefix must all stay distinct and come back whole.
  const std::vector<std::pair<std::string, std::string>> records = {
      {"plain", "no colon"}, {"ends:", "empty suffix"}, {":", "only a colon"},
      {"::", "two colons"},  {":x", "empty prefix"},    {"a:x", "prefix a"},
      {"b:x", "prefix b"},   {"a:b:x", "nested"},       {"ab:x", "longer prefix"},
      {"x", "suffix alone"}, {"", "empty key"},         {"a:", "prefix a, no suffix"},
  };
  mtcmos::util::KeyIndex index;
  for (const auto& [key, value] : records) index.put(key, value);
  EXPECT_EQ(index.size(), records.size());
  for (const auto& [key, value] : records) {
    const auto v = index.get(key);
    ASSERT_TRUE(v) << '"' << key << '"';
    EXPECT_EQ(*v, value) << '"' << key << '"';
  }
  EXPECT_FALSE(index.get("c:x"));
  EXPECT_FALSE(index.get("a:y"));
  EXPECT_FALSE(index.get(":::"));
  std::vector<std::pair<std::string, std::string>> visited;
  index.for_each([&](std::string_view key, std::string_view value) {
    visited.emplace_back(std::string(key), std::string(value));
  });
  std::sort(visited.begin(), visited.end());
  auto expected = records;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(visited, expected);
}

TEST(KeyIndex, ItemShapedRecordsStayUnder90BytesEach) {
  // 100,000 checkpoint-shaped records: a 44-byte prefix shared by 50,000
  // keys each, a 17-byte suffix and a 21-byte value.  Storing the prefix
  // once and using 8-byte slots keeps the whole index (arena, slots and
  // prefix table) within 90 bytes per record; storing every key whole
  // behind 16-byte slots took about 136.
  constexpr unsigned kRecords = 100000;
  mtcmos::util::KeyIndex index;
  const std::string value(21, 'v');
  for (unsigned i = 0; i < kRecords; ++i) index.put(item_key(i % 2, i), value);
  ASSERT_EQ(index.size(), kRecords);
  EXPECT_EQ(item_key(0, 0).size(), 44u + 17u);
  const double per_record = static_cast<double>(index.memory_bytes()) / kRecords;
  EXPECT_LE(per_record, 90.0);
  EXPECT_EQ(*index.get(item_key(1, 12345)), value);
  index.clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_EQ(index.memory_bytes(), 0u);
  EXPECT_FALSE(index.get(item_key(1, 12345)));
}

TEST_F(JournalTest, CompactedJournalReplaysTheSameKeyValueSet) {
  Journal j;
  j.open(path());
  for (unsigned probe = 0; probe < 4; ++probe) {
    for (unsigned i = 0; i < 500; ++i) j.append(item_key(probe, i), std::to_string(probe * i));
  }
  for (unsigned i = 0; i < 500; i += 7) j.append(item_key(1, i), "updated");
  j.append("plain", "no colon");
  j.append(":", "only a colon");
  j.append("ends:", std::string("bin\0ary\n", 8));
  const auto before = contents(j);
  ASSERT_EQ(before.size(), 2003u);
  j.compact();
  EXPECT_EQ(contents(j), before);
  j.close();
  Journal r;
  r.open(path());
  EXPECT_EQ(r.replayed_records(), before.size());
  EXPECT_EQ(r.truncated_bytes(), 0u);
  EXPECT_EQ(contents(r), before);
}

TEST_F(JournalTest, TimedFsyncRacingCompactAndFlushLosesNothing) {
  // With a tiny fsync interval nearly every batch syncs, and the fsync
  // runs outside the journal lock: appends, lookups, flush() and the fd
  // swap in compact() all race it.  Run under TSAN (label tsan).
  Journal j;
  j.open(path(), JournalOptions{1e-9, 0});
  constexpr int kThreads = 4, kPerThread = 100;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&j, t] {
      for (int i = 0; i < kPerThread; ++i) {
        j.append(thread_key(t, i), std::to_string(i));
        EXPECT_NE(j.find(thread_key(t, i)), nullptr);
      }
    });
  }
  std::thread compactor([&j] {
    for (int c = 0; c < 10; ++c) {
      j.compact();
      j.flush();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& w : workers) w.join();
  compactor.join();
  j.close();

  Journal r;
  r.open(path());
  EXPECT_EQ(r.truncated_bytes(), 0u);
  EXPECT_EQ(r.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const auto v = r.find(thread_key(t, i));
      ASSERT_NE(v, nullptr) << thread_key(t, i);
      EXPECT_EQ(*v, std::to_string(i));
    }
  }
}

}  // namespace
