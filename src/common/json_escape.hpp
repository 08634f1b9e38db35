#pragma once
// JSON string escaping (RFC 8259) for every JSON document the serving
// stack writes by hand: HTTP response bodies, the metrics snapshot and
// chrome://tracing exports.

#include <string>
#include <string_view>

namespace yoloc {

/// `s` escaped for use between the quotes of a JSON string: quote and
/// backslash get a backslash, \n \r \t their short escapes, and every
/// other control character below 0x20 a \u00XX escape. Bytes >= 0x20
/// pass through unchanged (UTF-8 stays UTF-8).
[[nodiscard]] std::string json_escape(std::string_view s);

}  // namespace yoloc
