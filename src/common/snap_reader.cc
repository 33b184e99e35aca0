#include "common/snap_reader.h"

#include <algorithm>
#include <string>

#include "common/string_util.h"

namespace ltc {
namespace snap {

namespace {

void SplitFields(std::string_view line, Fields* fields) {
  fields->clear();
  for (std::size_t start = 0;;) {
    const std::size_t space = line.find(' ', start);
    fields->push_back(line.substr(start, space - start));
    if (space == std::string_view::npos) return;
    start = space + 1;
  }
}

}  // namespace

Reader::Reader(std::string_view text) : text_(text) {
  total_lines_ = static_cast<std::int64_t>(
      std::count(text.begin(), text.end(), '\n'));
  if (!text.empty() && text.back() != '\n') ++total_lines_;
}

bool Reader::NextLine(std::string_view* line) {
  if (pos_ >= text_.size()) return false;
  const std::size_t end = text_.find('\n', pos_);
  if (end == std::string_view::npos) {
    *line = text_.substr(pos_);
    pos_ = text_.size();
  } else {
    *line = text_.substr(pos_, end - pos_);
    pos_ = end + 1;
  }
  ++lines_read_;
  return true;
}

bool Reader::Next(Fields* fields) {
  std::string_view line;
  while (NextLine(&line)) {
    line = TrimView(line);
    if (line.empty()) continue;
    SplitFields(line, fields);
    return true;
  }
  return false;
}

Status Reader::Read(const char* key, std::size_t min_fields, Fields* fields) {
  if (!Next(fields)) {
    return Status::InvalidArgument(
        StrFormat("snapshot: unexpected end of input (wanted '%s')", key));
  }
  // The fields are views into one line: its bytes run from the first
  // field's start to the last field's end.
  const auto line = [fields] {
    const std::string_view last = fields->back();
    return std::string((*fields)[0].data(),
                       static_cast<std::size_t>(last.data() + last.size() -
                                                (*fields)[0].data()));
  };
  if ((*fields)[0] != key) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: expected '%s' record, got: %s", key, line().c_str()));
  }
  if (fields->size() < min_fields) {
    return Status::InvalidArgument(
        StrFormat("snapshot: '%s' record too short: %s", key, line().c_str()));
  }
  return Status::OK();
}

Status Reader::ReadCount(const char* key, std::int64_t* count,
                         std::size_t min_fields, Fields* fields) {
  Fields local;
  Fields* f = fields != nullptr ? fields : &local;
  LTC_RETURN_IF_ERROR(Read(key, std::max<std::size_t>(min_fields, 2), f));
  LTC_RETURN_IF_ERROR(FieldI64(*f, 1, count));
  if (*count < 0) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: negative '%s' count %lld", key,
        static_cast<long long>(*count)));
  }
  if (*count > unread_lines()) {
    return Status::OutOfRange(StrFormat(
        "snapshot: '%s' count %lld exceeds the %lld unread line(s)", key,
        static_cast<long long>(*count),
        static_cast<long long>(unread_lines())));
  }
  return Status::OK();
}

Status Reader::ReadBlock(std::int64_t lines, std::string_view* block) {
  if (lines < 0 || lines > unread_lines()) {
    return Status::InvalidArgument("snapshot: unexpected end of input");
  }
  const std::size_t start = pos_;
  std::string_view line;
  for (std::int64_t i = 0; i < lines; ++i) NextLine(&line);
  *block = text_.substr(start, pos_ - start);
  return Status::OK();
}

bool Reader::AtEnd() const {
  return TrimView(text_.substr(pos_)).empty();
}

Status FieldI64(const Fields& fields, std::size_t i, std::int64_t* out) {
  if (i >= fields.size() || !ParseInt64(fields[i], out)) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: bad integer field %zu in '%s' record", i,
        fields.empty() ? "?" : std::string(fields[0]).c_str()));
  }
  return Status::OK();
}

Status FieldDouble(const Fields& fields, std::size_t i, double* out) {
  if (i >= fields.size() || !ParseDouble(fields[i], out)) {
    return Status::InvalidArgument(StrFormat(
        "snapshot: bad double field %zu in '%s' record", i,
        fields.empty() ? "?" : std::string(fields[0]).c_str()));
  }
  return Status::OK();
}

}  // namespace snap
}  // namespace ltc
