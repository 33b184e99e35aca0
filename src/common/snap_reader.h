// The line-cursor reader behind every snapshot parser (DESIGN.md §11): the
// engine and pipeline blocks (svc), the scheduler blobs (algo) and the
// forecast blob (fcst) all read "key field field ..." records through it.
//
// The reader holds a view of the text and hands out lines and fields as
// views into it: parsing a snapshot allocates nothing per line, and an
// embedded sub-blob is passed on as a view of its own lines rather than
// copied out and re-split.

#ifndef LTC_COMMON_SNAP_READER_H_
#define LTC_COMMON_SNAP_READER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace ltc {
namespace snap {

/// The fields of one record, as views into the reader's text. Callers keep
/// one vector and pass it to every Read, so its capacity is reused.
using Fields = std::vector<std::string_view>;

/// \brief Line-cursor reader over a snapshot (or one of its sub-blobs).
///
/// Read() consumes the next non-empty line, verifies its key, splits its
/// fields, and fails with the offending line in the message — so a parse
/// error in a 10k-line snapshot still points at the record that broke.
/// The text must outlive the reader and every view it returned.
class Reader {
 public:
  explicit Reader(std::string_view text);

  /// Consumes the next non-empty line into *fields (split on single
  /// spaces). Returns false at end of input.
  bool Next(Fields* fields);

  /// Consumes the next non-empty line; errors unless fields[0] == key and
  /// at least min_fields fields are present.
  Status Read(const char* key, std::size_t min_fields, Fields* fields);

  /// Reads a "key N ..." record whose N counts the lines that follow it
  /// (each record is one line); *fields, when given, receives the record.
  /// Rejects a negative N, and an N larger than the unread line count,
  /// before any caller sizes a container by it — a damaged count can never
  /// allocate beyond the snapshot's own size.
  Status ReadCount(const char* key, std::int64_t* count,
                   std::size_t min_fields = 2, Fields* fields = nullptr);

  /// Consumes the next `lines` lines verbatim, empty ones included, and
  /// returns them as one view (an embedded sub-blob, e.g. scheduler state).
  /// Errors when fewer lines are left.
  Status ReadBlock(std::int64_t lines, std::string_view* block);

  /// Lines not yet consumed: an upper bound on the records left.
  std::int64_t unread_lines() const { return total_lines_ - lines_read_; }

  /// True when only blank lines are left.
  bool AtEnd() const;

 private:
  /// Consumes one raw line (without its '\n'); false at end of input.
  bool NextLine(std::string_view* line);

  std::string_view text_;
  std::size_t pos_ = 0;
  std::int64_t total_lines_ = 0;
  std::int64_t lines_read_ = 0;
};

/// Field parse helpers with contextual errors.
Status FieldI64(const Fields& fields, std::size_t i, std::int64_t* out);
Status FieldDouble(const Fields& fields, std::size_t i, double* out);

}  // namespace snap
}  // namespace ltc

#endif  // LTC_COMMON_SNAP_READER_H_
