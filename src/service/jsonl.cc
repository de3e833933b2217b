#include "service/jsonl.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace gepc {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonObject> ParseObject() {
    SkipSpace();
    if (!Consume('{')) return Error("expected '{'");
    JsonObject object;
    SkipSpace();
    if (Consume('}')) return FinishAtEnd(std::move(object));
    while (true) {
      SkipSpace();
      std::string key;
      GEPC_RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (!Consume(':')) return Error("expected ':' after key");
      SkipSpace();
      JsonValue value;
      GEPC_RETURN_IF_ERROR(ParseValue(&value));
      object[key] = std::move(value);
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return FinishAtEnd(std::move(object));
      return Error("expected ',' or '}'");
    }
  }

 private:
  Result<JsonObject> FinishAtEnd(JsonObject object) {
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return object;
  }

  Status ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return ParseString(&out->string_value);
    }
    if (c == 't' || c == 'f') {
      const std::string word = c == 't' ? "true" : "false";
      if (text_.compare(pos_, word.size(), word) != 0) {
        return Error("bad literal");
      }
      pos_ += word.size();
      out->type = JsonValue::Type::kBool;
      out->bool_value = c == 't';
      return Status::OK();
    }
    if (c == 'n') {
      if (text_.compare(pos_, 4, "null") != 0) return Error("bad literal");
      pos_ += 4;
      out->type = JsonValue::Type::kNull;
      return Status::OK();
    }
    if (c == '{' || c == '[') {
      return Error("nested objects/arrays are not supported");
    }
    // Number, in JSON's own syntax -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?
    // (strtod alone would also take inf, nan, hex and a leading '+').
    const size_t start = pos_;
    Consume('-');
    if (!Consume('0') && !ConsumeDigits()) return Error("bad value");
    if (Consume('.') && !ConsumeDigits()) return Error("bad number");
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (!ConsumeDigits()) return Error("bad number");
    }
    char* end = nullptr;
    const double value = std::strtod(text_.c_str() + start, &end);
    if (end != text_.c_str() + pos_) return Error("bad number");
    if (!std::isfinite(value)) return Error("number out of range");
    out->type = JsonValue::Type::kNumber;
    out->number_value = value;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected '\"'");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("bad \\u escape");
          char* end = nullptr;
          const std::string hex = text_.substr(pos_, 4);
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) return Error("bad \\u escape");
          pos_ += 4;
          // ASCII only; anything else is replaced (protocol keys/values
          // are plain identifiers and op specs).
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  /// Consumes [0-9]+; false when no digit is next.
  bool ConsumeDigits() {
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  Status Error(const std::string& what) {
    return Status::InvalidArgument("JSON error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonObject> ParseJsonObject(const std::string& line) {
  Parser parser(line);
  return parser.ParseObject();
}

std::string EscapeJson(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  // Trim to the shortest representation that still round-trips.
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[40];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
    if (std::strtod(shorter, nullptr) == value) return shorter;
  }
  return buffer;
}

void JsonWriter::AppendKey(const std::string& key) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += EscapeJson(key);
  body_ += "\":";
}

void JsonWriter::Add(const std::string& key, const std::string& value) {
  AppendKey(key);
  body_ += '"';
  body_ += EscapeJson(value);
  body_ += '"';
}

void JsonWriter::Add(const std::string& key, const char* value) {
  Add(key, std::string(value));
}

void JsonWriter::Add(const std::string& key, double value) {
  AppendKey(key);
  body_ += JsonNumber(value);
}

void JsonWriter::Add(const std::string& key, int64_t value) {
  AppendKey(key);
  body_ += std::to_string(value);
}

void JsonWriter::Add(const std::string& key, uint64_t value) {
  AppendKey(key);
  body_ += std::to_string(value);
}

void JsonWriter::Add(const std::string& key, int value) {
  AppendKey(key);
  body_ += std::to_string(value);
}

void JsonWriter::Add(const std::string& key, bool value) {
  AppendKey(key);
  body_ += value ? "true" : "false";
}

void JsonWriter::AddRaw(const std::string& key, const std::string& raw) {
  AppendKey(key);
  body_ += raw;
}

std::string JsonWriter::Finish() const { return "{" + body_ + "}"; }

}  // namespace gepc
