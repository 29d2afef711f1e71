#include "net/wire_json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace beas {
namespace net {

const Json* Json::Get(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  auto it = fields.find(key);
  return it == fields.end() ? nullptr : &it->second;
}

namespace {

constexpr int kMaxDepth = 32;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<Json> Parse() {
    BEAS_ASSIGN_OR_RETURN(Json doc, ParseValue(0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Status::ParseError("trailing bytes after JSON document");
    }
    return doc;
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Err(const std::string& what) {
    return Status::ParseError("JSON: " + what + " at offset " +
                              std::to_string(pos_));
  }

  Result<Json> ParseValue(int depth) {
    if (depth > kMaxDepth) return Err("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') return ParseNull();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumber();
    }
    return Err("unexpected character");
  }

  Result<Json> ParseObject(int depth) {
    ++pos_;  // '{'
    Json out;
    out.type = Json::Type::kObject;
    SkipWs();
    if (Consume('}')) return out;
    for (;;) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Err("expected object key");
      }
      BEAS_ASSIGN_OR_RETURN(Json key, ParseString());
      if (!Consume(':')) return Err("expected ':'");
      BEAS_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      out.fields[key.str] = std::move(value);
      if (Consume(',')) continue;
      if (Consume('}')) return out;
      return Err("expected ',' or '}'");
    }
  }

  Result<Json> ParseArray(int depth) {
    ++pos_;  // '['
    Json out;
    out.type = Json::Type::kArray;
    SkipWs();
    if (Consume(']')) return out;
    for (;;) {
      BEAS_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      out.items.push_back(std::move(value));
      if (Consume(',')) continue;
      if (Consume(']')) return out;
      return Err("expected ',' or ']'");
    }
  }

  Result<Json> ParseString() {
    ++pos_;  // '"'
    Json out;
    out.type = Json::Type::kString;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char e = text_[pos_++];
        switch (e) {
          case '"': out.str += '"'; break;
          case '\\': out.str += '\\'; break;
          case '/': out.str += '/'; break;
          case 'b': out.str += '\b'; break;
          case 'f': out.str += '\f'; break;
          case 'n': out.str += '\n'; break;
          case 'r': out.str += '\r'; break;
          case 't': out.str += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Err("short \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return Err("bad \\u escape");
            }
            // UTF-8 encode the BMP code point (surrogate pairs unsupported;
            // the adapter's own output never emits them).
            if (code < 0x80) {
              out.str += static_cast<char>(code);
            } else if (code < 0x800) {
              out.str += static_cast<char>(0xC0 | (code >> 6));
              out.str += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out.str += static_cast<char>(0xE0 | (code >> 12));
              out.str += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out.str += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default:
            return Err("unknown escape");
        }
      } else {
        out.str += c;
      }
    }
    return Err("unterminated string");
  }

  Result<Json> ParseBool() {
    Json out;
    out.type = Json::Type::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      out.b = true;
      pos_ += 4;
      return out;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out.b = false;
      pos_ += 5;
      return out;
    }
    return Err("expected boolean");
  }

  Result<Json> ParseNull() {
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      return Json();
    }
    return Err("expected null");
  }

  Result<Json> ParseNumber() {
    size_t start = pos_;
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ < text_.size() &&
        (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
              text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
    }
    std::string token = text_.substr(start, pos_ - start);
    Json out;
    out.type = Json::Type::kNumber;
    out.num = std::strtod(token.c_str(), nullptr);
    out.num_is_integral = integral;
    if (integral) {
      out.inum = std::strtoll(token.c_str(), nullptr, 10);
    } else {
      out.inum = static_cast<int64_t>(out.num);
    }
    return out;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

void AppendValueJson(std::string* out, const Value& v) {
  switch (v.type()) {
    case TypeId::kNull:
      *out += "null";
      return;
    case TypeId::kInt64:
      *out += std::to_string(v.AsInt64());
      return;
    case TypeId::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", v.AsDouble());
      *out += buf;
      return;
    }
    case TypeId::kString:
      *out += '"';
      *out += JsonEscape(v.AsString());
      *out += '"';
      return;
    case TypeId::kDate: {
      // Render the YYYYMMDD encoding back to ISO for the JSON side.
      int64_t d = v.AsDate();
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%04lld-%02lld-%02lld",
                    static_cast<long long>(d / 10000),
                    static_cast<long long>((d / 100) % 100),
                    static_cast<long long>(d % 100));
      *out += '"';
      *out += buf;
      *out += '"';
      return;
    }
  }
  *out += "null";
}

}  // namespace

Result<Json> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string RenderResponseJson(const WireResponse& response) {
  std::string out;
  if (!response.status.ok()) {
    StatusCode code = response.status.code();
    out += "{\"error\":{\"code\":\"";
    out += StatusCodeName(code);
    out += "\",\"http\":";
    out += std::to_string(StatusCodeToHttp(code));
    out += ",\"message\":\"";
    out += JsonEscape(response.status.message());
    out += "\"}}";
    return out;
  }
  const QueryResponse& r = response.response;
  out += "{\"status\":\"OK\"";
  out += ",\"covered\":";
  out += r.covered ? "true" : "false";
  out += ",\"eta\":";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", r.eta);
  out += buf;
  out += ",\"degraded\":";
  out += r.degraded ? "true" : "false";
  out += ",\"timed_out\":";
  out += r.timed_out ? "true" : "false";
  out += ",\"cache_hit\":";
  out += r.cache_hit ? "true" : "false";
  out += ",\"result_cache_hit\":";
  out += r.result_cache_hit ? "true" : "false";
  out += ",\"deduced_bound\":";
  out += std::to_string(r.decision.deduced_bound);
  if (!r.reason.empty()) {
    out += ",\"reason\":\"";
    out += JsonEscape(r.reason);
    out += "\"";
  }
  if (response.rows_inserted > 0) {
    out += ",\"rows_inserted\":";
    out += std::to_string(response.rows_inserted);
  }
  out += ",\"columns\":[";
  for (size_t i = 0; i < r.result.column_names.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += JsonEscape(r.result.column_names[i]);
    out += '"';
  }
  out += "],\"rows\":[";
  for (size_t i = 0; i < r.result.rows.size(); ++i) {
    if (i > 0) out += ',';
    out += '[';
    const Row& row = r.result.rows[i];
    for (size_t j = 0; j < row.size(); ++j) {
      if (j > 0) out += ',';
      AppendValueJson(&out, row[j]);
    }
    out += ']';
  }
  out += "]}";
  return out;
}

Result<Value> JsonToValue(const Json& json) {
  switch (json.type) {
    case Json::Type::kNull:
      return Value::Null();
    case Json::Type::kBool:
      return Value::Int64(json.b ? 1 : 0);
    case Json::Type::kNumber:
      return json.num_is_integral ? Value::Int64(json.inum)
                                  : Value::Double(json.num);
    case Json::Type::kString:
      return Value::String(json.str);
    case Json::Type::kObject: {
      const Json* date = json.Get("date");
      if (date != nullptr && date->is_string()) {
        return Value::DateFromString(date->str);
      }
      return Status::InvalidArgument(
          "JSON object values must be {\"date\":\"YYYY-MM-DD\"}");
    }
    case Json::Type::kArray:
      return Status::InvalidArgument("nested arrays are not valid cells");
  }
  return Status::InvalidArgument("unsupported JSON value");
}

}  // namespace net
}  // namespace beas
