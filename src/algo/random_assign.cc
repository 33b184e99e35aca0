#include "algo/random_assign.h"

#include <algorithm>
#include <charconv>

#include "common/string_util.h"

namespace ltc {
namespace algo {

namespace {

/// Full-string unsigned 64-bit parse (ParseInt64 would reject the upper
/// half of the xoshiro word range).
bool ParseU64(std::string_view s, std::uint64_t* out) {
  const char* end = s.data() + s.size();
  const std::from_chars_result r = std::from_chars(s.data(), end, *out);
  return !s.empty() && r.ec == std::errc() && r.ptr == end;
}

}  // namespace

void RandomAssign::SelectTasks(const model::Worker& worker,
                               const std::vector<model::TaskId>& candidates,
                               std::vector<model::TaskId>* out) {
  (void)worker;
  const auto k = static_cast<std::size_t>(capacity());
  if (candidates.size() <= k) {
    out->insert(out->end(), candidates.begin(), candidates.end());
    return;
  }
  // Partial Fisher-Yates: draw K distinct tasks uniformly.
  pool_ = candidates;
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(rng_.UniformInt(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(pool_.size()) - 1));
    std::swap(pool_[i], pool_[j]);
    out->push_back(pool_[i]);
  }
}

void RandomAssign::SerializeExtras(std::string* out) const {
  const Rng::State s = rng_.SaveState();
  AppendRecord(out, "x rng", s.s[0], s.s[1], s.s[2], s.s[3], s.cached_gaussian,
               s.has_cached_gaussian ? 1 : 0);
}

Status RandomAssign::RestoreExtra(const snap::Fields& f) {
  Rng::State s{};
  std::int64_t has = 0;
  if (f.size() != 7 || f[0] != "rng" || !ParseU64(f[1], &s.s[0]) ||
      !ParseU64(f[2], &s.s[1]) || !ParseU64(f[3], &s.s[2]) ||
      !ParseU64(f[4], &s.s[3]) || !ParseDouble(f[5], &s.cached_gaussian) ||
      !ParseInt64(f[6], &has)) {
    return Status::InvalidArgument("Random: bad rng snapshot line");
  }
  s.has_cached_gaussian = has != 0;
  rng_.RestoreState(s);
  return Status::OK();
}

}  // namespace algo
}  // namespace ltc
