#include "io/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/fault_points.h"
#include "common/string_util.h"
#include "io/workload_io.h"

namespace ltc {
namespace io {

namespace {

Status WriteAll(int fd, const char* data, std::size_t len,
                const std::string& path) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write " + path + ": " + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

}  // namespace

StatusOr<std::unique_ptr<EventLogWriter>> EventLogWriter::Create(
    const std::string& path, const EventLog& header, WalOptions options) {
  LTC_ASSIGN_OR_RETURN(const std::string header_text,
                       SerializeEventLogHeader(header));
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  std::unique_ptr<EventLogWriter> writer(
      new EventLogWriter(path, fd, options));
  // The header goes down durably before the writer is handed out: a WAL
  // that exists on disk always parses, even if zero records follow.
  writer->buffer_ = header_text;
  LTC_RETURN_IF_ERROR(writer->Flush());
  return writer;
}

StatusOr<std::unique_ptr<EventLogWriter>> EventLogWriter::OpenForAppend(
    const std::string& path, WalRecovery* recovery, WalOptions options) {
  auto read = ReadFile(path);
  if (!read.ok()) {
    return Status::NotFound("WAL " + path + ": " + read.status().message());
  }
  const std::string& text = read.value();

  // Torn-tail rule: the writer emits whole newline-terminated records, so
  // the durable logical content is everything up to and including the last
  // '\n'; any bytes after it are a record a crash cut short.
  const std::size_t last_newline = text.rfind('\n');
  const std::size_t durable =
      last_newline == std::string::npos ? 0 : last_newline + 1;
  recovery->truncated_bytes = static_cast<std::int64_t>(text.size() - durable);

  auto parsed = ParseEventLog(text.substr(0, durable));
  if (!parsed.ok()) {
    // Full lines that fail to parse are corruption, not tearing — a WAL
    // whose durable prefix is broken cannot be silently repaired. Surface
    // it as IOError (the header contract): the file is damaged, the input
    // is not merely malformed.
    return Status::IOError("corrupt WAL " + path + ": " +
                           parsed.status().message());
  }
  recovery->log = std::move(parsed).value();

  const int fd = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IOError("open " + path + ": " + std::strerror(errno));
  }
  if (recovery->truncated_bytes > 0) {
    if (::ftruncate(fd, static_cast<off_t>(durable)) != 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::IOError("truncate " + path + ": " + err);
    }
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IOError("seek " + path + ": " + err);
  }
  return std::unique_ptr<EventLogWriter>(
      new EventLogWriter(path, fd, options));
}

EventLogWriter::~EventLogWriter() {
  // No flush — see the file comment. Buffered records are lost, exactly as
  // they would be in a crash.
  if (fd_ >= 0) ::close(fd_);
}

Status EventLogWriter::Append(const Event& event) {
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer is closed");
  if (auto action = FaultPoints::Instance().Hit("wal.append")) {
    return Status::IOError("injected wal.append fault: " + *action);
  }
  AppendEventRecord(&buffer_, event);
  ++records_appended_;
  ++records_since_flush_;
  if (options_.group_commit > 0 &&
      records_since_flush_ >= options_.group_commit) {
    return Flush();
  }
  return Status::OK();
}

Status EventLogWriter::Flush() {
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer is closed");
  if (auto action = FaultPoints::Instance().Hit("wal.flush")) {
    return Status::IOError("injected wal.flush fault: " + *action);
  }
  if (!buffer_.empty()) {
    LTC_RETURN_IF_ERROR(WriteAll(fd_, buffer_.data(), buffer_.size(), path_));
    buffer_.clear();
  }
  records_since_flush_ = 0;
  if (options_.fsync) {
    if (auto action = FaultPoints::Instance().Hit("wal.fsync")) {
      return Status::IOError("injected wal.fsync fault: " + *action);
    }
    if (::fsync(fd_) != 0) {
      return Status::IOError("fsync " + path_ + ": " + std::strerror(errno));
    }
  }
  return Status::OK();
}

Status EventLogWriter::Close() {
  if (fd_ < 0) return Status::FailedPrecondition("WAL writer is closed");
  LTC_RETURN_IF_ERROR(Flush());
  const int fd = fd_;
  fd_ = -1;
  if (::close(fd) != 0) {
    return Status::IOError("close " + path_ + ": " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace io
}  // namespace ltc
