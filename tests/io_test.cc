// Tests for workload/arrangement (de)serialisation and the robustness of
// the ltc-events v1 reader (truncation, CRLF line endings).

#include <gtest/gtest.h>

#include <cstdio>

#include "gen/example_paper.h"
#include "gen/stream.h"
#include "gen/synthetic.h"
#include "io/event_log.h"
#include "io/wal.h"
#include "io/workload_io.h"
#include "model/eligibility.h"
#include "sim/engine.h"

namespace ltc {
namespace io {
namespace {

/// One event's v1 record text.
std::string Record(const Event& e) {
  std::string out;
  AppendEventRecord(&out, e);
  return out;
}

model::ProblemInstance SmallSynthetic(std::uint64_t seed = 3) {
  gen::SyntheticConfig cfg;
  cfg.num_tasks = 8;
  cfg.num_workers = 50;
  cfg.grid_side = 80.0;
  cfg.seed = seed;
  auto instance = gen::GenerateSynthetic(cfg);
  instance.status().CheckOK();
  return std::move(instance).value();
}

TEST(WorkloadIoTest, InstanceRoundTripsExactly) {
  const model::ProblemInstance original = SmallSynthetic();
  auto text = SerializeInstance(original);
  ASSERT_TRUE(text.ok());
  auto parsed = ParseInstance(text.value());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  EXPECT_EQ(parsed->num_tasks(), original.num_tasks());
  EXPECT_EQ(parsed->num_workers(), original.num_workers());
  EXPECT_DOUBLE_EQ(parsed->epsilon, original.epsilon);
  EXPECT_EQ(parsed->capacity, original.capacity);
  EXPECT_DOUBLE_EQ(parsed->acc_min, original.acc_min);
  for (std::int64_t t = 0; t < original.num_tasks(); ++t) {
    EXPECT_EQ(parsed->tasks[static_cast<std::size_t>(t)].location,
              original.tasks[static_cast<std::size_t>(t)].location);
  }
  for (std::int64_t i = 0; i < original.num_workers(); ++i) {
    const auto& a = parsed->workers[static_cast<std::size_t>(i)];
    const auto& b = original.workers[static_cast<std::size_t>(i)];
    EXPECT_EQ(a.location, b.location);
    EXPECT_DOUBLE_EQ(a.historical_accuracy, b.historical_accuracy);
    EXPECT_EQ(a.user_id, b.user_id);
  }
  // Accuracy function round-trips semantically: same Acc on every pair.
  for (std::int64_t t = 0; t < original.num_tasks(); ++t) {
    EXPECT_DOUBLE_EQ(parsed->Acc(1, static_cast<model::TaskId>(t)),
                     original.Acc(1, static_cast<model::TaskId>(t)));
  }
}

TEST(WorkloadIoTest, FileRoundTrip) {
  const model::ProblemInstance original = SmallSynthetic(9);
  const std::string path = "/tmp/ltc_io_test_workload.txt";
  ASSERT_TRUE(SaveInstance(original, path).ok());
  auto loaded = LoadInstance(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_workers(), original.num_workers());
  // Algorithms behave identically on the loaded instance.
  auto index_a = model::EligibilityIndex::Build(&original);
  auto index_b = model::EligibilityIndex::Build(&loaded.value());
  ASSERT_TRUE(index_a.ok());
  ASSERT_TRUE(index_b.ok());
  auto ma = sim::RunAlgorithm("LAF", original, *index_a);
  auto mb = sim::RunAlgorithm("LAF", *loaded, *index_b);
  ASSERT_TRUE(ma.ok());
  ASSERT_TRUE(mb.ok());
  EXPECT_EQ(ma->latency, mb->latency);
}

TEST(WorkloadIoTest, LoadMissingFileFails) {
  EXPECT_TRUE(LoadInstance("/tmp/no_such_ltc_file.txt").status().IsIOError());
}

TEST(WorkloadIoTest, ParseRejectsCorruptInputs) {
  EXPECT_TRUE(ParseInstance("").status().IsInvalidArgument());
  EXPECT_TRUE(ParseInstance("not a workload").status().IsInvalidArgument());

  const model::ProblemInstance original = SmallSynthetic();
  auto text = SerializeInstance(original);
  ASSERT_TRUE(text.ok());
  // Truncate a worker line.
  std::string bad = text.value();
  bad.replace(bad.rfind("w "), 3, "w x");
  EXPECT_FALSE(ParseInstance(bad).ok());
  // Declared counts must match.
  std::string miscount = text.value();
  miscount.replace(miscount.find("tasks 8"), 7, "tasks 9");
  EXPECT_FALSE(ParseInstance(miscount).ok());
  // Unknown record type.
  EXPECT_FALSE(ParseInstance(std::string("# ltc-workload v1\nz 1\n")).ok());
}

TEST(WorkloadIoTest, MatrixAccuracyNotSerialisable) {
  auto instance = gen::PaperExampleInstance(0.2);
  ASSERT_TRUE(instance.ok());
  EXPECT_TRUE(SerializeInstance(*instance).status().code() ==
              StatusCode::kNotImplemented);
}

TEST(ArrangementIoTest, RoundTripPreservesAssignments) {
  const model::ProblemInstance instance = SmallSynthetic(11);
  auto index = model::EligibilityIndex::Build(&instance);
  ASSERT_TRUE(index.ok());
  auto scheduler = algo::MakeOnlineScheduler("LAF", 1);
  ASSERT_TRUE(scheduler.ok());
  (*scheduler)->Init(instance, *index).CheckOK();
  std::vector<model::TaskId> assigned;
  for (const auto& w : instance.workers) {
    if ((*scheduler)->Done()) break;
    (*scheduler)->OnArrival(w, &assigned).CheckOK();
  }
  const model::Arrangement& original = (*scheduler)->arrangement();
  const std::string text = SerializeArrangement(original);
  auto parsed = ParseArrangement(instance, text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), original.size());
  EXPECT_EQ(parsed->MaxWorkerIndex(), original.MaxWorkerIndex());
  for (std::int64_t t = 0; t < instance.num_tasks(); ++t) {
    EXPECT_NEAR(parsed->accumulated(static_cast<model::TaskId>(t)),
                original.accumulated(static_cast<model::TaskId>(t)), 1e-9);
  }
}

std::string SmallEventLogText() {
  gen::StreamConfig cfg;
  cfg.num_tasks = 5;
  cfg.num_workers = 40;
  cfg.seed = 17;
  auto log = gen::GenerateStreamEvents(cfg);
  log.status().CheckOK();
  auto text = SerializeEventLog(log.value());
  text.status().CheckOK();
  return std::move(text).value();
}

// A file cut mid-record must fail loudly: a truncated coordinate or
// accuracy field can still parse as a perfectly valid (wrong) number, so
// the reader treats a missing final newline as truncation rather than
// risking a silently mangled last event.
TEST(EventLogIoTest, TruncatedFinalLineIsACleanError) {
  const std::string text = SmallEventLogText();
  ASSERT_EQ(text.back(), '\n');

  // Cut inside the last record (drop the newline plus a few characters).
  const std::string truncated = text.substr(0, text.size() - 4);
  const auto parsed = ParseEventLog(truncated);
  ASSERT_TRUE(parsed.status().IsInvalidArgument()) << parsed.status().ToString();
  EXPECT_NE(parsed.status().ToString().find("truncated"), std::string::npos)
      << parsed.status().ToString();

  // Even a cut that lands exactly on the record boundary (newline gone,
  // record text complete) reads as truncation — writers always terminate.
  const std::string no_newline = text.substr(0, text.size() - 1);
  EXPECT_TRUE(ParseEventLog(no_newline).status().IsInvalidArgument());

  // Dropping whole records keeps the declared-count check as the backstop.
  const std::string last_line_start = text.substr(0, text.rfind('\n'));
  const std::string whole_line_gone =
      text.substr(0, last_line_start.rfind('\n') + 1);
  EXPECT_TRUE(ParseEventLog(whole_line_gone).status().IsInvalidArgument());
}

// CRLF-terminated logs (a file that went through a Windows editor or a
// "text mode" transfer) must parse to the same stream, byte for byte after
// re-serialisation.
TEST(EventLogIoTest, CrlfTerminatedLogParsesTolerantly) {
  const std::string text = SmallEventLogText();
  std::string crlf;
  crlf.reserve(text.size() + 64);
  for (char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  const auto parsed = ParseEventLog(crlf);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto round = SerializeEventLog(parsed.value());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value(), text);
}

/// `text` with its "events N" line's count replaced by `count`.
std::string WithEventCount(const std::string& text, const std::string& count) {
  const std::size_t line = text.find("\nevents ");
  EXPECT_NE(line, std::string::npos);
  const std::size_t begin = line + 8;
  return text.substr(0, begin) + count + text.substr(text.find('\n', begin));
}

// A damaged "events N" count is a clean InvalidArgument, never an
// allocation sized by the damage: a negative count is rejected outright,
// and a huge one reserves no more than the rest of the input could hold
// (and then fails the declared-count check).
TEST(EventLogIoTest, BadEventCountIsACleanError) {
  const std::string text = SmallEventLogText();
  const auto negative = ParseEventLog(WithEventCount(text, "-1"));
  ASSERT_TRUE(negative.status().IsInvalidArgument())
      << negative.status().ToString();
  EXPECT_NE(negative.status().ToString().find("negative event count"),
            std::string::npos)
      << negative.status().ToString();

  const auto huge = ParseEventLog(WithEventCount(text, "99999999999999"));
  ASSERT_TRUE(huge.status().IsInvalidArgument()) << huge.status().ToString();
  EXPECT_NE(huge.status().ToString().find("event count mismatch"),
            std::string::npos)
      << huge.status().ToString();
}

// LoadEventLogHeader returns exactly the header LoadEventLog reads, with no
// events, and never looks at the body — a malformed body still loads.
TEST(EventLogIoTest, LoadHeaderReadsOnlyTheHeader) {
  const std::string text = SmallEventLogText();
  const std::string path = "/tmp/ltc_io_test_header.events";
  WriteFile(path, text).CheckOK();
  const auto full = LoadEventLog(path);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  ASSERT_GT(full.value().num_events(), 0);
  const auto header = LoadEventLogHeader(path);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header.value().num_events(), 0);
  EXPECT_EQ(header.value().epsilon, full.value().epsilon);
  EXPECT_EQ(header.value().capacity, full.value().capacity);
  EXPECT_EQ(header.value().acc_min, full.value().acc_min);
  ASSERT_NE(header.value().accuracy, nullptr);
  EXPECT_EQ(AccuracyLine(*header.value().accuracy).value(),
            AccuracyLine(*full.value().accuracy).value());

  // A body LoadEventLog rejects: a garbage record and a cut last line.
  const std::string body_start = "\nevents ";
  const std::size_t events_line = text.find(body_start);
  const std::string bad_body =
      text.substr(0, text.find('\n', events_line + 1) + 1) +
      "w not-a-number\nq 1 2\nt 0.5 1";
  WriteFile(path, bad_body).CheckOK();
  EXPECT_FALSE(LoadEventLog(path).ok());
  const auto still = LoadEventLogHeader(path);
  ASSERT_TRUE(still.ok()) << still.status().ToString();
  EXPECT_EQ(still.value().epsilon, full.value().epsilon);

  // A header-only file (a WAL's) ends at the first event record.
  const auto wal_header = SerializeEventLogHeader(full.value());
  ASSERT_TRUE(wal_header.ok());
  WriteFile(path, wal_header.value() + "t 0 1 2\n").CheckOK();
  const auto from_wal = LoadEventLogHeader(path);
  ASSERT_TRUE(from_wal.ok()) << from_wal.status().ToString();
  EXPECT_EQ(from_wal.value().capacity, full.value().capacity);

  // A bad header is still an error.
  WriteFile(path, "# ltc-events v1\nepsilon 2\n").CheckOK();
  EXPECT_TRUE(LoadEventLogHeader(path).status().IsInvalidArgument());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadEventLogHeader(path).ok());
}

// --------------------------------------------------------------------------
// Write-ahead log (io/wal.h): the WAL is an ltc-events file, so recovery is
// ParseEventLog over the durable prefix; these pin the documented recovery
// rules — torn tails truncate, corrupt prefixes surface, unflushed
// group-commit windows vanish on crash.

io::EventLog SmallEventLog() {
  gen::StreamConfig cfg;
  cfg.num_tasks = 5;
  cfg.num_workers = 40;
  cfg.seed = 17;
  auto log = gen::GenerateStreamEvents(cfg);
  log.status().CheckOK();
  return std::move(log).value();
}

std::string WalPath(const std::string& name) {
  const std::string path = "/tmp/ltc_io_test_" + name + ".events";
  std::remove(path.c_str());
  return path;
}

TEST(WalTest, CreateAppendReopenRoundTrip) {
  const io::EventLog log = SmallEventLog();
  const std::string path = WalPath("roundtrip");
  WalOptions wopts;
  wopts.fsync = false;
  {
    auto writer = EventLogWriter::Create(path, log, wopts);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (std::size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(writer.value()->Append(log.events[i]).ok());
    }
    EXPECT_EQ(writer.value()->records_appended(), 10);
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  WalRecovery recovery;
  auto reopened = EventLogWriter::OpenForAppend(path, &recovery, wopts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(recovery.truncated_bytes, 0);
  ASSERT_EQ(recovery.log.num_events(), 10);
  EXPECT_DOUBLE_EQ(recovery.log.epsilon, log.epsilon);
  EXPECT_EQ(recovery.log.capacity, log.capacity);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(Record(recovery.log.events[i]),
              Record(log.events[i]));
  }
  // Appends continue seamlessly; the file stays a parseable ltc-events log.
  ASSERT_TRUE(reopened.value()->Append(log.events[10]).ok());
  ASSERT_TRUE(reopened.value()->Close().ok());
  auto loaded = LoadEventLog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_events(), 11);
}

// Satellite regression (PR 7): a torn final record — the partial write a
// crash leaves behind — is detected and truncated on open-for-append
// instead of poisoning the parse or, worse, parsing as a valid-but-wrong
// event.
TEST(WalTest, TornFinalRecordIsTruncatedOnReopen) {
  const io::EventLog log = SmallEventLog();
  const std::string path = WalPath("torn");
  WalOptions wopts;
  wopts.fsync = false;
  {
    auto writer = EventLogWriter::Create(path, log, wopts);
    ASSERT_TRUE(writer.ok());
    for (std::size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(writer.value()->Append(log.events[i]).ok());
    }
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  // Tear: a record whose tail never hit the disk. "w 1.25 3" would even
  // parse as a (wrong) prefix of a worker record if naively completed.
  {
    auto text = ReadFile(path);
    ASSERT_TRUE(text.ok());
    ASSERT_TRUE(WriteFile(path, text.value() + "w 1.25 3").ok());
  }
  WalRecovery recovery;
  auto reopened = EventLogWriter::OpenForAppend(path, &recovery, wopts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(recovery.truncated_bytes, 8);
  EXPECT_EQ(recovery.log.num_events(), 6);
  // The truncation is physical: appends land where the tear was removed.
  ASSERT_TRUE(reopened.value()->Append(log.events[6]).ok());
  ASSERT_TRUE(reopened.value()->Close().ok());
  auto loaded = LoadEventLog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_events(), 7);
}

// A corrupt *complete* line is not tearing — it must surface as IOError,
// never be silently dropped.
TEST(WalTest, CorruptDurablePrefixSurfaces) {
  const io::EventLog log = SmallEventLog();
  const std::string path = WalPath("corrupt");
  WalOptions wopts;
  wopts.fsync = false;
  {
    auto writer = EventLogWriter::Create(path, log, wopts);
    ASSERT_TRUE(writer.ok());
    for (std::size_t i = 0; i < 6; ++i) {
      ASSERT_TRUE(writer.value()->Append(log.events[i]).ok());
    }
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  auto text = ReadFile(path);
  ASSERT_TRUE(text.ok());
  std::string bad = text.value();
  bad.replace(bad.rfind("\nw "), 3, "\nw x", 4);
  ASSERT_TRUE(WriteFile(path, bad).ok());
  WalRecovery recovery;
  EXPECT_TRUE(EventLogWriter::OpenForAppend(path, &recovery, wopts)
                  .status()
                  .IsIOError());
}

TEST(WalTest, CrashDropsOnlyTheUnflushedWindow) {
  const io::EventLog log = SmallEventLog();
  const std::string path = WalPath("window");
  WalOptions wopts;
  wopts.group_commit = 4;
  wopts.fsync = false;
  {
    auto writer = EventLogWriter::Create(path, log, wopts);
    ASSERT_TRUE(writer.ok());
    for (std::size_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(writer.value()->Append(log.events[i]).ok());
    }
    // Crash: destroyed without Close — the buffered partial window (10
    // appended, 8 flushed) must vanish, not half-land.
  }
  WalRecovery recovery;
  auto reopened = EventLogWriter::OpenForAppend(path, &recovery, wopts);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(recovery.log.num_events(), 8);
  EXPECT_EQ(recovery.truncated_bytes, 0);
}

TEST(WalTest, OpenForAppendOnMissingFileIsNotFound) {
  WalRecovery recovery;
  EXPECT_TRUE(
      EventLogWriter::OpenForAppend("/tmp/no_such_ltc_wal.events", &recovery)
          .status()
          .IsNotFound());
}

TEST(EventRecordCodecTest, ParseIsInverseOfFormat) {
  const io::EventLog log = SmallEventLog();
  for (const Event& e : log.events) {
    auto parsed = ParseEventRecord(Record(e));
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    EXPECT_EQ(Record(parsed.value()), Record(e));
  }
  EXPECT_FALSE(ParseEventRecord("t 0 1").ok());       // missing field
  EXPECT_FALSE(ParseEventRecord("w 0 1 2").ok());     // missing accuracy
  EXPECT_FALSE(ParseEventRecord("m 0 zero 1 2").ok());  // non-numeric id
  EXPECT_FALSE(ParseEventRecord("q 0 1 2").ok());     // unknown kind
  EXPECT_FALSE(ParseEventRecord("").ok());
}

Event MakeEvent(Event::Kind kind, double time, double x, double y,
                double accuracy = 0.0, model::TaskId task = -1) {
  Event e;
  e.kind = kind;
  e.time = time;
  e.location = geo::Point{x, y};
  e.accuracy = accuracy;
  e.task = task;
  return e;
}

// Checked-in record bytes (printf's %.17g): the WAL, wire payloads and
// events files all carry these exact strings.
TEST(EventRecordCodecTest, FormatMatchesGoldenBytes) {
  EXPECT_EQ(Record(
                MakeEvent(Event::Kind::kTaskArrival, 0.0, 100.25, 100.5)),
            "t 0 100.25 100.5\n");
  EXPECT_EQ(Record(MakeEvent(Event::Kind::kWorkerArrival, 0.15,
                                        101.0, 99.0, 0.9)),
            "w 0.14999999999999999 101 99 0.90000000000000002\n");
  EXPECT_EQ(Record(MakeEvent(Event::Kind::kTaskMove, 0.35,
                                        640.0 + 1.0 / 3.0, 470.0, 0.0, 2)),
            "m 0.34999999999999998 2 640.33333333333337 470\n");
  EXPECT_EQ(Record(MakeEvent(Event::Kind::kWorkerArrival, 1e-05,
                                        -0.0, 1e300, 1.0)),
            "w 1.0000000000000001e-05 -0 1.0000000000000001e+300 1\n");
  EXPECT_EQ(Record(MakeEvent(Event::Kind::kTaskArrival,
                                        123456789.125, 1e16, 5e-324)),
            "t 123456789.125 10000000000000000 4.9406564584124654e-324\n");
  EXPECT_EQ(Record(MakeEvent(Event::Kind::kTaskMove, 2.5e17,
                                        -1.5, 0.0001, 0.0, 2147483647)),
            "m 2.5e+17 2147483647 -1.5 0.0001\n");

  // Records append in place, after whatever the buffer holds.
  std::string out = "x";
  AppendEventRecord(&out,
                    MakeEvent(Event::Kind::kTaskArrival, 0.0, 100.25, 100.5));
  EXPECT_EQ(out, "xt 0 100.25 100.5\n");
}

TEST(EventRecordCodecTest, ParseSplitsOnSingleSpacesOnly) {
  // Surrounding whitespace is trimmed; inner fields are single-space
  // separated, so a doubled space is an empty (bad) field.
  auto parsed = ParseEventRecord("  w 1 2 3 0.5\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().kind, Event::Kind::kWorkerArrival);
  EXPECT_EQ(parsed.value().accuracy, 0.5);
  EXPECT_FALSE(ParseEventRecord("w 1  2 3 0.5").ok());
  EXPECT_FALSE(ParseEventRecord("w 1 2 3 0.5 6").ok());  // extra field
  EXPECT_FALSE(ParseEventRecord("w 1 2 3 0.5 6 7 8").ok());
  EXPECT_FALSE(ParseEventRecord("t\t0 1 2").ok());
  EXPECT_FALSE(ParseEventRecord("   ").ok());
  // A subnormal coordinate written by the formatter parses back.
  auto tiny = ParseEventRecord("t 0 4.9406564584124654e-324 1");
  ASSERT_TRUE(tiny.ok()) << tiny.status().ToString();
  EXPECT_EQ(tiny.value().location.x, 5e-324);
}

TEST(ArrangementIoTest, RejectsBadReferences) {
  const model::ProblemInstance instance = SmallSynthetic();
  EXPECT_FALSE(ParseArrangement(instance, "").ok());
  EXPECT_FALSE(
      ParseArrangement(instance, "# ltc-arrangement v1\na 999 0\n").ok());
  EXPECT_FALSE(
      ParseArrangement(instance, "# ltc-arrangement v1\na 1 999\n").ok());
  EXPECT_FALSE(
      ParseArrangement(instance, "# ltc-arrangement v1\nbogus\n").ok());
}

}  // namespace
}  // namespace io
}  // namespace ltc
