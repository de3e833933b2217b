#include "common/flags.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

namespace gepc {

namespace {

// std::from_chars accepts no leading whitespace or '+', and reports how much
// it consumed, so "4x", " 4" and "" are all rejected.
template <typename T>
bool ParseNumber(const std::string& text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

std::string Quoted(const std::string& value) { return "'" + value + "'"; }

std::string FormatNumber(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

}  // namespace

Flag Flag::String(std::string name, std::string* out) {
  return {std::move(name), Arity::kRequired, [out](const std::string& value) {
            *out = value;
            return Status::OK();
          }};
}

Flag Flag::Bool(std::string name, bool* out) {
  return {std::move(name), Arity::kNone, [out](const std::string&) {
            *out = true;
            return Status::OK();
          }};
}

Flag Flag::Int(std::string name, int* out, int min, int max) {
  return {std::move(name), Arity::kRequired,
          [out, min, max](const std::string& value) {
            int64_t parsed = 0;
            if (!ParseNumber(value, &parsed) || parsed < min || parsed > max) {
              return Status::InvalidArgument(
                  "expected an integer in [" + std::to_string(min) + ", " +
                  std::to_string(max) + "], got " + Quoted(value));
            }
            *out = static_cast<int>(parsed);
            return Status::OK();
          }};
}

Flag Flag::Uint64(std::string name, uint64_t* out) {
  return {std::move(name), Arity::kRequired, [out](const std::string& value) {
            uint64_t parsed = 0;
            if (!ParseNumber(value, &parsed)) {
              return Status::InvalidArgument(
                  "expected an unsigned integer, got " + Quoted(value));
            }
            *out = parsed;
            return Status::OK();
          }};
}

Flag Flag::Double(std::string name, double* out, double min, double max,
                  bool min_exclusive) {
  return {std::move(name), Arity::kRequired,
          [out, min, max, min_exclusive](const std::string& value) {
            double parsed = 0.0;
            if (!ParseNumber(value, &parsed) || !std::isfinite(parsed) ||
                (min_exclusive ? !(parsed > min) : !(parsed >= min)) ||
                parsed > max) {
              std::string range = (min_exclusive ? "> " : ">= ") +
                                  FormatNumber(min);
              if (max < std::numeric_limits<double>::max()) {
                range += " and <= " + FormatNumber(max);
              }
              return Status::InvalidArgument("expected a number " + range +
                                             ", got " + Quoted(value));
            }
            *out = parsed;
            return Status::OK();
          }};
}

Flag Flag::Enum(std::string name, std::string* out,
                std::vector<std::string> choices) {
  return {std::move(name), Arity::kRequired,
          [out, choices = std::move(choices)](const std::string& value) {
            std::string listed;
            for (const std::string& choice : choices) {
              if (choice == value) {
                *out = value;
                return Status::OK();
              }
              listed += (listed.empty() ? "" : "|") + choice;
            }
            return Status::InvalidArgument("expected one of " + listed +
                                           ", got " + Quoted(value));
          }};
}

Flag Flag::Custom(std::string name, Setter set) {
  return {std::move(name), Arity::kRequired, std::move(set)};
}

Flag Flag::Repeated(std::string name, std::vector<std::string>* out) {
  return {std::move(name), Arity::kRequired, [out](const std::string& value) {
            out->push_back(value);
            return Status::OK();
          }};
}

Flag Flag::OptionalValue(std::string name, std::string* out) {
  return {std::move(name), Arity::kOptional, [out](const std::string& value) {
            *out = value;
            return Status::OK();
          }};
}

FlagTable::FlagTable(std::initializer_list<Flag> flags) : flags_(flags) {}

Status FlagTable::Parse(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.size() <= 2 || arg.compare(0, 2, "--") != 0) {
      return Status::InvalidArgument("unexpected argument " + Quoted(arg));
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq - 2);
    const bool has_inline = eq != std::string::npos;
    const Flag* flag = nullptr;
    for (const Flag& candidate : flags_) {
      if (candidate.name == name) flag = &candidate;
    }
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag '--" + name + "'");
    }
    std::string value = has_inline ? arg.substr(eq + 1) : "";
    if (flag->arity == Flag::Arity::kNone && has_inline) {
      return Status::InvalidArgument("flag '--" + name +
                                     "' does not take a value");
    }
    if (flag->arity == Flag::Arity::kRequired && !has_inline) {
      if (i + 1 >= argc) {
        return Status::InvalidArgument("flag '--" + name + "' needs a value");
      }
      value = argv[++i];
    }
    const Status stored = flag->set(value);
    if (!stored.ok()) {
      return Status::InvalidArgument("--" + name + ": " + stored.message());
    }
    given_.insert(name);
  }
  return Status::OK();
}

bool FlagTable::IsSet(const std::string& name) const {
  return given_.count(name) > 0;
}

Result<std::string> CommandWord(int argc, char** argv) {
  if (argc < 2) return Status::InvalidArgument("missing command");
  return std::string(argv[1]);
}

Status ParseHostPort(const std::string& spec, int min_port, std::string* host,
                     int* port) {
  std::string port_text = spec;
  const size_t colon = spec.rfind(':');
  if (colon != std::string::npos) {
    if (colon == 0) {
      return Status::InvalidArgument("empty host in " + Quoted(spec));
    }
    port_text = spec.substr(colon + 1);
  }
  int parsed = 0;
  if (!ParseNumber(port_text, &parsed) || parsed < min_port ||
      parsed > 65535) {
    return Status::InvalidArgument(
        "expected PORT or HOST:PORT with a port in [" +
        std::to_string(min_port) + ", 65535], got " + Quoted(spec));
  }
  if (colon != std::string::npos) *host = spec.substr(0, colon);
  *port = parsed;
  return Status::OK();
}

}  // namespace gepc
