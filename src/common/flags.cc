#include "common/flags.h"

#include <cstdio>

#include "common/string_util.h"

namespace ltc {

namespace internal {

FlagBase::FlagBase(std::string name, std::string help)
    : name_(std::move(name)), help_(std::move(help)) {
  FlagRegistry()[name_].push_back(this);
}

std::map<std::string, std::vector<FlagBase*>>& FlagRegistry() {
  static auto* registry = new std::map<std::string, std::vector<FlagBase*>>();
  return *registry;
}

namespace {

// A name takes the bare --name and --no-name forms only when every
// registration under it is boolean.
bool AllBool(const std::vector<FlagBase*>& flags) {
  for (const FlagBase* flag : flags) {
    if (!flag->IsBool()) return false;
  }
  return true;
}

Status ParseAll(const std::vector<FlagBase*>& flags, const std::string& text) {
  for (FlagBase* flag : flags) LTC_RETURN_IF_ERROR(flag->Parse(text));
  return Status::OK();
}

}  // namespace

}  // namespace internal

template <>
Status Flag<std::string>::Parse(const std::string& text) {
  value_ = text;
  return Status::OK();
}

template <>
Status Flag<std::int64_t>::Parse(const std::string& text) {
  std::int64_t v;
  if (!ParseInt64(text, &v)) {
    return Status::InvalidArgument("flag --" + name() +
                                   " expects an integer, got '" + text + "'");
  }
  value_ = v;
  return Status::OK();
}

template <>
Status Flag<double>::Parse(const std::string& text) {
  double v;
  if (!ParseDouble(text, &v)) {
    return Status::InvalidArgument("flag --" + name() +
                                   " expects a number, got '" + text + "'");
  }
  value_ = v;
  return Status::OK();
}

template <>
Status Flag<bool>::Parse(const std::string& text) {
  if (text == "true" || text == "1" || text.empty()) {
    value_ = true;
  } else if (text == "false" || text == "0") {
    value_ = false;
  } else {
    return Status::InvalidArgument("flag --" + name() +
                                   " expects true/false, got '" + text + "'");
  }
  return Status::OK();
}

template <>
bool Flag<bool>::IsBool() const {
  return true;
}
template <>
bool Flag<std::string>::IsBool() const {
  return false;
}
template <>
bool Flag<std::int64_t>::IsBool() const {
  return false;
}
template <>
bool Flag<double>::IsBool() const {
  return false;
}

template <>
std::string Flag<std::string>::ValueString() const {
  return value_;
}
template <>
std::string Flag<std::int64_t>::ValueString() const {
  return StrFormat("%lld", static_cast<long long>(value_));
}
template <>
std::string Flag<double>::ValueString() const {
  return StrFormat("%g", value_);
}
template <>
std::string Flag<bool>::ValueString() const {
  return value_ ? "true" : "false";
}

template class Flag<std::string>;
template class Flag<std::int64_t>;
template class Flag<double>;
template class Flag<bool>;

std::string FlagUsage() {
  std::string out = "Flags:\n";
  for (const auto& [name, flags] : internal::FlagRegistry()) {
    const internal::FlagBase* flag = flags.front();
    out += StrFormat("  --%-24s %s (default: %s)\n", name.c_str(),
                     flag->help().c_str(), flag->ValueString().c_str());
  }
  return out;
}

Status ParseCommandLine(int argc, char** argv,
                        std::vector<std::string>* positional) {
  auto& registry = internal::FlagRegistry();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      if (positional == nullptr) {
        return Status::InvalidArgument("unexpected positional argument '" +
                                       arg + "'");
      }
      positional->push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    if (arg == "help") {
      std::fputs(FlagUsage().c_str(), stderr);
      return Status::FailedPrecondition("--help requested");
    }
    std::string name = arg;
    std::string value;
    bool has_value = false;
    if (auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    bool negated = false;
    if (registry.find(name) == registry.end() && StartsWith(name, "no-")) {
      negated = true;
      name = name.substr(3);
    }
    auto it = registry.find(name);
    if (it == registry.end()) {
      return Status::InvalidArgument("unknown flag --" + name + "\n" +
                                     FlagUsage());
    }
    const std::vector<internal::FlagBase*>& flags = it->second;
    const bool is_bool = internal::AllBool(flags);
    if (negated) {
      if (!is_bool || has_value) {
        return Status::InvalidArgument("--no- form only valid for bool flags");
      }
      LTC_RETURN_IF_ERROR(internal::ParseAll(flags, "false"));
      continue;
    }
    if (!has_value) {
      if (is_bool) {
        LTC_RETURN_IF_ERROR(internal::ParseAll(flags, "true"));
        continue;
      }
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag --" + name + " expects a value");
      }
      value = argv[++i];
    }
    LTC_RETURN_IF_ERROR(internal::ParseAll(flags, value));
  }
  return Status::OK();
}

}  // namespace ltc
