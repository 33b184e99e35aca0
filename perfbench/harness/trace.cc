#include "trace.h"

#include <cstdio>

#include "common/string_util.h"
#include "io/workload_io.h"

namespace perfbench {

const char* SpanNameString(std::int32_t name) {
  static const char* const kNames[kNumSpanNames] = {
      "frame",       "net.encode",   "net.decode",   "io.wal_append",
      "io.wal_flush", "svc.on_event", "svc.flush_round", "svc.serialize",
      "svc.snapshot_write", "svc.snapshot_load", "svc.restore", "svc.finish",
      "svc.render",  "geo.distance", "geo.lower_bound", "geo.eligible",
  };
  return name >= 0 && name < kNumSpanNames ? kNames[name] : "?";
}

std::vector<SpanStats> Tracer::Stats() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<SpanStats> stats(kNumSpanNames);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SpanStats& st = stats[static_cast<std::size_t>(s.name)];
    const std::int64_t dur = s.end_ns - s.start_ns;
    ++st.count;
    st.total_ns += dur;
    st.self_ns += dur - child_ns[i];
    st.durations_us.push_back(static_cast<double>(dur) / 1e3);
  }
  return stats;
}

std::int64_t Tracer::RootNs() const {
  std::int64_t total = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0) total += s.end_ns - s.start_ns;
  }
  return total;
}

ltc::Status Tracer::WriteCsv(const std::string& path) const {
  std::string out = "id,parent,name,start_ns,end_ns\n";
  out.reserve(spans_.size() * 48);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out += ltc::StrFormat("%zu,%d,%s,%lld,%lld\n", i, s.parent,
                          SpanNameString(s.name),
                          static_cast<long long>(s.start_ns),
                          static_cast<long long>(s.end_ns));
  }
  return ltc::io::WriteFile(path, out);
}

}  // namespace perfbench
