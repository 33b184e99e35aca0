#include "io/event_log.h"

#include <algorithm>
#include <fstream>
#include <limits>

#include "common/string_util.h"
#include "io/workload_io.h"

namespace ltc {
namespace io {

namespace {

constexpr char kHeader[] = "# ltc-events v1";

/// The shortest event record: "t 0 0 0\n".
constexpr std::size_t kMinEventRecordBytes = 8;

}  // namespace

Status EventLog::Validate() const {
  if (accuracy == nullptr) {
    return Status::InvalidArgument("event log has no accuracy function");
  }
  if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
    return Status::InvalidArgument(
        StrFormat("epsilon must be in (0, 1), got %g", epsilon));
  }
  if (capacity <= 0) {
    return Status::InvalidArgument(
        StrFormat("capacity must be positive, got %d", capacity));
  }
  if (acc_min < 0.0 || acc_min >= 1.0) {
    return Status::InvalidArgument(
        StrFormat("acc_min must be in [0, 1), got %g", acc_min));
  }
  double last_time = -std::numeric_limits<double>::infinity();
  std::int64_t tasks_seen = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    if (!(e.time >= last_time)) {
      return Status::InvalidArgument(
          StrFormat("event %zu: time %g precedes predecessor %g (times must "
                    "be non-decreasing)",
                    i, e.time, last_time));
    }
    last_time = e.time;
    switch (e.kind) {
      case Event::Kind::kTaskArrival:
        ++tasks_seen;
        break;
      case Event::Kind::kWorkerArrival:
        if (e.accuracy < 0.0 || e.accuracy > 1.0) {
          return Status::InvalidArgument(
              StrFormat("event %zu: worker accuracy %g outside [0, 1]", i,
                        e.accuracy));
        }
        break;
      case Event::Kind::kTaskMove:
        if (e.task < 0 || static_cast<std::int64_t>(e.task) >= tasks_seen) {
          return Status::InvalidArgument(
              StrFormat("event %zu: move references task %d, but only %lld "
                        "task(s) have arrived",
                        i, e.task, static_cast<long long>(tasks_seen)));
        }
        break;
    }
  }
  return Status::OK();
}

StatusOr<std::string> SerializeEventLogHeader(const EventLog& log) {
  if (log.accuracy == nullptr) {
    return Status::InvalidArgument("event log has no accuracy function");
  }
  LTC_ASSIGN_OR_RETURN(std::string accuracy_line, AccuracyLine(*log.accuracy));
  std::string out = kHeader;
  out += '\n';
  out += StrFormat("epsilon %.17g\n", log.epsilon);
  out += StrFormat("capacity %d\n", log.capacity);
  out += StrFormat("acc_min %.17g\n", log.acc_min);
  out += accuracy_line + "\n";
  return out;
}

void AppendEventRecord(std::string* out, const Event& e) {
  switch (e.kind) {
    case Event::Kind::kTaskArrival:
      AppendRecord(out, "t", e.time, e.location.x, e.location.y);
      return;
    case Event::Kind::kWorkerArrival:
      AppendRecord(out, "w", e.time, e.location.x, e.location.y, e.accuracy);
      return;
    case Event::Kind::kTaskMove:
      AppendRecord(out, "m", e.time, e.task, e.location.x, e.location.y);
      return;
  }
}

StatusOr<std::string> SerializeEventLog(const EventLog& log) {
  LTC_RETURN_IF_ERROR(log.Validate());
  LTC_ASSIGN_OR_RETURN(std::string out, SerializeEventLogHeader(log));
  out += StrFormat("events %lld\n", static_cast<long long>(log.num_events()));
  for (const Event& e : log.events) {
    AppendEventRecord(&out, e);
  }
  return out;
}

StatusOr<Event> ParseEventRecord(std::string_view line) {
  const std::string_view trimmed = TrimView(line);
  // Fields are split on single spaces, as views into the line; a sixth
  // field only marks the record as too long.
  std::string_view fields[6];
  std::size_t n = 0;
  for (std::size_t start = 0; n < 6;) {
    const std::size_t space = trimmed.find(' ', start);
    fields[n++] = trimmed.substr(start, space - start);
    if (space == std::string_view::npos) break;
    start = space + 1;
  }
  if (fields[0].empty()) {
    return Status::InvalidArgument("empty event record");
  }
  const std::string_view key = fields[0];
  auto bad = [&](const char* kind) {
    return Status::InvalidArgument(std::string("bad ") + kind +
                                   " event record: " + std::string(trimmed));
  };
  Event e;
  if (key == "t") {
    e.kind = Event::Kind::kTaskArrival;
    if (n != 4 || !ParseDouble(fields[1], &e.time) ||
        !ParseDouble(fields[2], &e.location.x) ||
        !ParseDouble(fields[3], &e.location.y)) {
      return bad("task");
    }
    return e;
  }
  if (key == "w") {
    e.kind = Event::Kind::kWorkerArrival;
    if (n != 5 || !ParseDouble(fields[1], &e.time) ||
        !ParseDouble(fields[2], &e.location.x) ||
        !ParseDouble(fields[3], &e.location.y) ||
        !ParseDouble(fields[4], &e.accuracy)) {
      return bad("worker");
    }
    return e;
  }
  if (key == "m") {
    e.kind = Event::Kind::kTaskMove;
    std::int64_t task;
    if (n != 5 || !ParseDouble(fields[1], &e.time) ||
        !ParseInt64(fields[2], &task) ||
        !ParseDouble(fields[3], &e.location.x) ||
        !ParseDouble(fields[4], &e.location.y)) {
      return bad("move");
    }
    e.task = static_cast<model::TaskId>(task);
    return e;
  }
  return Status::InvalidArgument("unknown event record '" + std::string(key) +
                                 "'");
}

namespace {

/// Applies one header record of line `line_no` — epsilon, capacity,
/// acc_min, accuracy, or the "events N" count, which lands in
/// *expected_events — to *log.
Status ParseHeaderRecord(std::string_view line, std::size_t line_no,
                         EventLog* log, std::int64_t* expected_events) {
  std::string_view fields[4];
  std::size_t n = 0;
  for (std::size_t start = 0; n < 4;) {
    const std::size_t space = line.find(' ', start);
    fields[n++] = line.substr(start, space - start);
    if (space == std::string_view::npos) break;
    start = space + 1;
  }
  const std::string_view key = fields[0];
  auto need = [&](std::size_t want) -> Status {
    if (n != want) {
      return Status::InvalidArgument(
          StrFormat("line %zu: expected %zu fields, got %zu%s", line_no, want,
                    n, n == 4 ? "+" : ""));
    }
    return Status::OK();
  };
  if (key == "epsilon") {
    LTC_RETURN_IF_ERROR(need(2));
    if (!ParseDouble(fields[1], &log->epsilon)) {
      return Status::InvalidArgument("bad epsilon");
    }
  } else if (key == "capacity") {
    LTC_RETURN_IF_ERROR(need(2));
    std::int64_t v;
    if (!ParseInt64(fields[1], &v)) {
      return Status::InvalidArgument("bad capacity");
    }
    log->capacity = static_cast<std::int32_t>(v);
  } else if (key == "acc_min") {
    LTC_RETURN_IF_ERROR(need(2));
    if (!ParseDouble(fields[1], &log->acc_min)) {
      return Status::InvalidArgument("bad acc_min");
    }
  } else if (key == "accuracy") {
    LTC_RETURN_IF_ERROR(need(3));
    double param;
    if (!ParseDouble(fields[2], &param)) {
      return Status::InvalidArgument("bad accuracy parameter");
    }
    LTC_ASSIGN_OR_RETURN(log->accuracy,
                         MakeAccuracy(std::string(fields[1]), param));
  } else if (key == "events") {
    LTC_RETURN_IF_ERROR(need(2));
    if (!ParseInt64(fields[1], expected_events)) {
      return Status::InvalidArgument("bad event count");
    }
    if (*expected_events < 0) {
      return Status::InvalidArgument(StrFormat(
          "line %zu: negative event count %lld", line_no,
          static_cast<long long>(*expected_events)));
    }
  } else {
    return Status::InvalidArgument("unknown record '" + std::string(key) +
                                   "'");
  }
  return Status::OK();
}

bool IsEventKey(std::string_view key) {
  return key == "t" || key == "w" || key == "m";
}

}  // namespace

StatusOr<EventLog> ParseEventLog(const std::string& text) {
  // Lines are views into `text`, split on '\n'; CRLF-terminated files are
  // tolerated because every line is trimmed (which strips the dangling
  // '\r') before field splitting.
  const std::string_view all(text);
  const std::size_t header_end = all.find('\n');
  if (TrimView(all.substr(0, header_end)) != kHeader) {
    return Status::InvalidArgument("missing ltc-events v1 header");
  }
  // Every record the writer emits is newline-terminated, so a non-empty
  // final line without its '\n' means the file was cut mid-record. Failing
  // here is what keeps a truncated last event from parsing "successfully"
  // with a silently shortened coordinate or accuracy field.
  if (text.back() != '\n') {
    const std::string_view last = TrimView(all.substr(all.rfind('\n') + 1));
    if (!last.empty()) {
      return Status::InvalidArgument(
          "truncated final line (ltc-events v1 files are newline-terminated): "
          "'" + std::string(last) + "'");
    }
  }
  EventLog log;
  std::int64_t expected_events = -1;
  std::size_t i = 0;  // line index; the header is line 0
  for (std::size_t end = header_end; end != std::string_view::npos;) {
    const std::size_t start = end + 1;
    end = all.find('\n', start);
    ++i;
    const std::string_view line = TrimView(all.substr(start, end - start));
    if (line.empty()) continue;
    const std::string_view key = line.substr(0, line.find(' '));
    if (IsEventKey(key)) {
      auto event = ParseEventRecord(line);
      if (!event.ok()) {
        return event.status().WithContext(StrFormat("line %zu", i + 1));
      }
      log.events.push_back(event.value());
      continue;
    }
    LTC_RETURN_IF_ERROR(
        ParseHeaderRecord(line, i + 1, &log, &expected_events));
    if (key == "events" && end != std::string_view::npos) {
      // The count sizes the event vector, but never beyond what the rest
      // of the input could hold — an event record takes at least
      // kMinEventRecordBytes — so a damaged count cannot allocate more
      // than the input's own size, and needs no second pass to check.
      const auto records_left = static_cast<std::int64_t>(
          (all.size() - end) / kMinEventRecordBytes);
      log.events.reserve(static_cast<std::size_t>(
          std::min(expected_events, records_left)));
    }
  }
  if (expected_events >= 0 && expected_events != log.num_events()) {
    return Status::InvalidArgument(
        StrFormat("event count mismatch: declared %lld, found %lld",
                  static_cast<long long>(expected_events),
                  static_cast<long long>(log.num_events())));
  }
  LTC_RETURN_IF_ERROR(log.Validate().WithContext("ParseEventLog"));
  return log;
}

Status SaveEventLog(const EventLog& log, const std::string& path) {
  LTC_ASSIGN_OR_RETURN(std::string text, SerializeEventLog(log));
  return WriteFile(path, text);
}

StatusOr<EventLog> LoadEventLog(const std::string& path) {
  LTC_ASSIGN_OR_RETURN(std::string text, ReadFile(path));
  auto parsed = ParseEventLog(text);
  if (!parsed.ok()) return parsed.status().WithContext("loading " + path);
  return parsed;
}

StatusOr<EventLog> LoadEventLogHeader(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  auto fail = [&path](const Status& status) {
    return status.WithContext("loading the header of " + path);
  };
  std::string raw;
  if (!std::getline(in, raw) || TrimView(raw) != kHeader) {
    return fail(Status::InvalidArgument("missing ltc-events v1 header"));
  }
  EventLog log;
  std::int64_t expected_events = -1;
  // The header ends at the "events N" count, or — in a header-only file
  // such as a WAL — at the first event record; the body is never read.
  for (std::size_t i = 2; std::getline(in, raw); ++i) {
    const std::string_view line = TrimView(raw);
    if (line.empty()) continue;
    const std::string_view key = line.substr(0, line.find(' '));
    if (IsEventKey(key)) break;
    const Status status = ParseHeaderRecord(line, i, &log, &expected_events);
    if (!status.ok()) return fail(status);
    if (key == "events") break;
  }
  const Status valid = log.Validate();
  if (!valid.ok()) return fail(valid);
  return log;
}

StatusOr<EventLog> EventLogFromInstance(const model::ProblemInstance& instance,
                                        double worker_spacing) {
  LTC_RETURN_IF_ERROR(instance.Validate());
  if (!(worker_spacing > 0.0)) {
    return Status::InvalidArgument("worker_spacing must be positive");
  }
  EventLog log;
  log.epsilon = instance.epsilon;
  log.capacity = instance.capacity;
  log.acc_min = instance.acc_min;
  log.accuracy = instance.accuracy;
  log.events.reserve(instance.tasks.size() + instance.workers.size());
  for (const model::Task& t : instance.tasks) {
    Event e;
    e.kind = Event::Kind::kTaskArrival;
    e.time = 0.0;
    e.location = t.location;
    log.events.push_back(e);
  }
  for (const model::Worker& w : instance.workers) {
    Event e;
    e.kind = Event::Kind::kWorkerArrival;
    e.time = static_cast<double>(w.index) * worker_spacing;
    e.location = w.location;
    e.accuracy = w.historical_accuracy;
    log.events.push_back(e);
  }
  return log;
}

}  // namespace io
}  // namespace ltc
