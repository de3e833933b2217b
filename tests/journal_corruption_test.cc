// Satellite of the fault-injection PR: feed deliberately damaged GOPS1
// journals — truncated at every byte, single-bit-flipped, pure garbage —
// into the crash-tolerant scanner and ReplayJournal. The contract under
// test: recovery either succeeds or returns a clean Status; it never
// crashes, never loops, and never fabricates operations. The CI sanitize
// job runs this suite under ASan to catch the "never leaks" half too.

#include "service/journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "iep/trace.h"
#include "tests/paper_example.h"
#include "tests/temp_path.h"

namespace gepc {
namespace {

using testing_support::MakePaperInstance;
using testing_support::MakePaperPlan;
using testing_support::TestTempPath;

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// A journal exercising every row kind, written through the real Journal so
// the bytes match production output exactly.
std::string BuildSampleJournal(const std::string& path) {
  std::remove(path.c_str());
  auto journal = Journal::Open(path);
  EXPECT_TRUE(journal.ok()) << journal.status().ToString();
  const Instance instance = MakePaperInstance();
  std::vector<AtomicOp> ops;
  ops.push_back(AtomicOp::BudgetChange(0, 21.5));
  ops.push_back(AtomicOp::UpperBoundChange(1, 3));
  ops.push_back(AtomicOp::LowerBoundChange(2, 2));
  ops.push_back(AtomicOp::TimeChange(3, {1080, 1200}));
  ops.push_back(AtomicOp::LocationChange(0, {2.0, -3.0}));
  ops.push_back(AtomicOp::UtilityChange(4, 1, 0.75));
  Event fresh = instance.event(0);
  fresh.location = {7.0, 7.0};
  ops.push_back(AtomicOp::NewEvent(
      fresh, std::vector<double>(static_cast<size_t>(instance.num_users()),
                                 0.5)));
  ops.push_back(AtomicOp::BudgetChange(2, 19.0));
  for (const AtomicOp& op : ops) {
    EXPECT_TRUE(journal->Append(op).ok());
  }
  return ReadBytes(path);
}

class JournalCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    journal_path_ = TestTempPath("journal_corruption.gops");
    crash_path_ = TestTempPath("journal_corruption.crash.gops");
    full_ = BuildSampleJournal(journal_path_);
    ASSERT_GT(full_.size(), 40u);
  }

  Result<ReplayReport> Replay(const std::string& bytes) {
    WriteBytes(crash_path_, bytes);
    return ReplayJournal(MakePaperInstance(), MakePaperPlan(), crash_path_);
  }

  std::string journal_path_;
  std::string crash_path_;
  std::string full_;
};

TEST_F(JournalCorruptionTest, TruncatedAtEveryByteRecoversClean) {
  uint64_t last_ops = 0;
  int torn = 0;
  for (size_t L = 0; L <= full_.size(); ++L) {
    auto replay = Replay(full_.substr(0, L));
    ASSERT_TRUE(replay.ok())
        << "offset " << L << ": " << replay.status().ToString();
    const uint64_t ops = replay->ops_applied + replay->ops_rejected;
    // Prefixes only ever add ops; a longer prefix can never lose one.
    EXPECT_GE(ops, last_ops) << "offset " << L;
    last_ops = ops;
    if (replay->torn_bytes_discarded > 0) ++torn;
    EXPECT_EQ(replay->committed_bytes + replay->torn_bytes_discarded,
              static_cast<int64_t>(L));
  }
  EXPECT_EQ(last_ops, 8u);
  EXPECT_GT(torn, 0);  // mid-row truncations must exercise the torn path
}

TEST_F(JournalCorruptionTest, SingleBitFlipsNeverCrash) {
  int clean_errors = 0;
  for (size_t i = 0; i < full_.size(); ++i) {
    for (const char mask : {char(0x01), char(0x20)}) {
      std::string flipped = full_;
      flipped[i] = static_cast<char>(flipped[i] ^ mask);
      auto replay = Replay(flipped);
      if (!replay.ok()) {
        // A clean, typed error — kInvalidArgument for interior rot.
        EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument)
            << "byte " << i << ": " << replay.status().ToString();
        ++clean_errors;
      } else {
        // Some flips keep every row parseable (a digit changed). The scan
        // still must not invent operations out of thin air.
        EXPECT_LE(replay->ops_applied + replay->ops_rejected, 8u);
      }
    }
  }
  EXPECT_GT(clean_errors, 0);
}

TEST_F(JournalCorruptionTest, GarbageAfterHeaderIsCleanError) {
  Rng rng(404);
  for (int trial = 0; trial < 16; ++trial) {
    std::string bytes = "GOPS1\n";
    const size_t length = 1 + rng.UniformUint64(200);
    for (size_t i = 0; i < length; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformUint64(256)));
    }
    auto replay = Replay(bytes);
    if (!replay.ok()) {
      EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST_F(JournalCorruptionTest, PureGarbageFileIsCleanError) {
  Rng rng(808);
  for (int trial = 0; trial < 16; ++trial) {
    std::string bytes;
    const size_t length = 1 + rng.UniformUint64(200);
    for (size_t i = 0; i < length; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformUint64(256)));
    }
    auto replay = Replay(bytes);
    if (!replay.ok()) {
      EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument);
    } else {
      // Only possible when the garbage happens to be all-torn (no newline):
      // then nothing is committed and nothing replays.
      EXPECT_EQ(replay->ops_applied + replay->ops_rejected, 0u);
    }
  }
}

TEST_F(JournalCorruptionTest, EmptyAndHeaderTornFilesYieldZeroOps) {
  const std::vector<std::string> cases = {"", "G", "GOPS1", "GOPS1\n"};
  for (const std::string& bytes : cases) {
    WriteBytes(crash_path_, bytes);
    auto scan = ScanJournalFile(crash_path_);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_TRUE(scan->ops.empty());
    auto replay = Replay(bytes);
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(replay->ops_applied + replay->ops_rejected, 0u);
  }
}

TEST_F(JournalCorruptionTest, WrongHeaderIsError) {
  auto replay = Replay("NOPE1\nbudget 0 21.5\n");
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(JournalCorruptionTest, MissingFileIsNotFound) {
  auto replay =
      ReplayJournal(MakePaperInstance(), MakePaperPlan(),
                    TestTempPath("journal_corruption.nonexistent.gops"));
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kNotFound);
}

TEST_F(JournalCorruptionTest, InteriorCorruptLineIsErrorNotTornTail) {
  // Replace the *middle* row with a complete-but-unparseable line. Unlike
  // a torn tail this must hard-fail: data after the rot can't be trusted.
  // Past the first, each line is a valid row with a flipped or extra
  // character: it must fail as corruption, not replay as a different op
  // (`0.7u` read as 0.7).
  const size_t first_row = full_.find('\n') + 1;
  const size_t second_row = full_.find('\n', first_row) + 1;
  const size_t third_row = full_.find('\n', second_row) + 1;
  for (const std::string bad :
       {"xyzzy 12 foo", "eta 1 2 junk", "budget 0 12abc", "mu 3 4 0.7u",
        "xi 1 2.5", "new 1 2 0 3 10 20 0 0.5 0.u 0.7"}) {
    auto replay = Replay(full_.substr(0, second_row) + bad + "\n" +
                         full_.substr(third_row));
    ASSERT_FALSE(replay.ok()) << bad;
    EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(replay.status().message().find("byte"), std::string::npos);
  }
}

TEST_F(JournalCorruptionTest, ScanReportsCommittedAndTornSplit) {
  const std::string torn = full_.substr(0, full_.size() - 3);
  WriteBytes(crash_path_, torn);
  auto scan = ScanJournalFile(crash_path_);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->ops.size(), 7u);
  EXPECT_GT(scan->torn_bytes, 0);
  EXPECT_EQ(scan->committed_bytes + scan->torn_bytes,
            static_cast<int64_t>(torn.size()));
}

TEST_F(JournalCorruptionTest, OpenTruncatesTornTailThenExtendsCleanly) {
  WriteBytes(crash_path_, full_.substr(0, full_.size() - 3));
  auto journal = Journal::Open(crash_path_);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  EXPECT_EQ(journal->preexisting_ops(), 7u);
  ASSERT_TRUE(journal->Append(AtomicOp::BudgetChange(1, 22.0)).ok());
  auto scan = ScanJournalFile(crash_path_);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->ops.size(), 8u);
  EXPECT_EQ(scan->torn_bytes, 0);
}

// The GOPS1 reader rejects nan and inf, so the writer must never emit them:
// such an append fails and leaves the file byte-identical.
TEST_F(JournalCorruptionTest, NonFiniteOpIsRefusedAndFileUntouched) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Event fresh = MakePaperInstance().event(0);
  fresh.fee = inf;
  const std::vector<AtomicOp> bad = {
      AtomicOp::UtilityChange(0, 0, nan),
      AtomicOp::BudgetChange(0, inf),
      AtomicOp::LocationChange(0, {nan, 1.0}),
      AtomicOp::NewEvent(fresh, std::vector<double>(5, 0.5)),
      AtomicOp::NewEvent(MakePaperInstance().event(0),
                         std::vector<double>{0.5, -inf, 0.5, 0.5, 0.5}),
  };
  auto journal = Journal::Open(journal_path_);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  for (const AtomicOp& op : bad) {
    EXPECT_EQ(journal->Append(op).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(ReadBytes(journal_path_), full_);
  }
  EXPECT_EQ(journal->bytes_written(), static_cast<int64_t>(full_.size()));
  auto replay = ReplayJournal(MakePaperInstance(), MakePaperPlan(),
                              journal_path_);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->ops_applied + replay->ops_rejected, 8u);
}

}  // namespace
}  // namespace gepc
