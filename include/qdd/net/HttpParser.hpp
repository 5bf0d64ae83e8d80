#pragma once

// qdd::net — incremental HTTP/1.1 request parsing. The reactor feeds it
// bytes as they arrive on a non-blocking socket (Reactor.hpp).
//
// The parser is pull-based and buffer-owned: callers append received bytes
// to a std::string and call tryParseHttpRequest until it stops returning
// NeedMore. On Ok the consumed bytes are erased from the front of the
// buffer (pipelined follow-up requests stay behind for the next call).

#include "qdd/service/Http.hpp"

#include <cstddef>
#include <cstdint>
#include <string>

namespace qdd::net {

/// Result of one incremental parse attempt.
enum class ParseStatus : std::uint8_t {
  NeedMore,    ///< incomplete request; append more bytes and retry
  Ok,          ///< one request parsed and consumed from the buffer
  Malformed,   ///< unparseable request line/headers -> 400, close
  TooLarge,    ///< headers over 16 KiB or Content-Length over the cap -> 413
  Unsupported, ///< Transfer-Encoding etc. -> 501, close
};

/// Hard ceiling on the request line + headers (terminator included).
inline constexpr std::size_t MAX_HTTP_HEADER_BYTES = 16U * 1024U;

/// Attempts to parse one complete request from the front of `buffer`.
/// On Ok, `out` is filled and the request's bytes are erased from `buffer`;
/// on any other status the buffer is left untouched. `maxBodyBytes` bounds
/// the declared Content-Length — the body of an over-limit request is never
/// waited for (TooLarge returns as soon as the headers are complete).
ParseStatus tryParseHttpRequest(std::string& buffer,
                                service::HttpRequest& out,
                                std::size_t maxBodyBytes);

} // namespace qdd::net
