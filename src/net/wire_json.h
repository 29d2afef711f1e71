#ifndef BEAS_NET_WIRE_JSON_H_
#define BEAS_NET_WIRE_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "net/protocol.h"

namespace beas {
namespace net {

/// \brief A minimal JSON document model for the HTTP adapter: just enough
/// to parse request bodies and render responses, with no dependency.
/// Numbers keep both an integer and a double reading so "7" can bind an
/// INT column and "7.5" a DOUBLE one.
struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool b = false;
  double num = 0;
  int64_t inum = 0;
  bool num_is_integral = false;
  std::string str;
  std::vector<Json> items;                 ///< kArray
  std::map<std::string, Json> fields;      ///< kObject

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }
  /// Object field lookup; null when absent or not an object.
  const Json* Get(const std::string& key) const;
};

/// Parses one JSON document (trailing garbage is an error). Bounds- and
/// depth-checked: attacker-controlled bodies get typed errors, not stack
/// overflows.
Result<Json> ParseJson(const std::string& text);

/// Escapes a string for embedding in a JSON document (no quotes added).
std::string JsonEscape(std::string_view s);

/// Renders a WireResponse as the HTTP adapter's JSON body. Errors become
/// {"error":{"code":TOKEN,"http":N,"message":...}}; successes carry the
/// envelope's scalar telemetry plus columns/rows.
std::string RenderResponseJson(const WireResponse& response);

/// Converts a parsed JSON value into an engine Value. Strings stay
/// strings; {"date":"YYYY-MM-DD"} objects become DATE values; integral
/// numbers become INT64, others DOUBLE.
Result<Value> JsonToValue(const Json& json);

}  // namespace net
}  // namespace beas

#endif  // BEAS_NET_WIRE_JSON_H_
