// The one text path: numbers appended to a std::string.
//
// Every byte the serving process writes (routes, exporters, checkpoint
// messages, the daemon's status lines) is built by appending to a
// std::string and handing the result to a socket, a file descriptor or
// stdio. No iostreams: a stream pulls std::ios_base's static init and the
// classic locale's facets into the process, ~0.45 MiB of resident
// libstdc++ pages the daemon otherwise never touches (DESIGN.md §10).
//
// Each helper renders exactly the bytes the matching ostream insertion
// renders (integers as their decimal digits, a double in the stream's
// default format: printf's %g at precision 6), so output moved off a
// stream keeps its bytes; the renderers' tests compare against streams.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <string>

namespace confcall::support {

/// Decimal digits of `v`, as `os << v` prints an unsigned integer.
inline void append_uint(std::string& out, std::uint64_t v) {
  char buffer[24];
  const auto [end, error] = std::to_chars(buffer, buffer + sizeof(buffer), v);
  (void)error;  // 24 bytes hold any uint64_t
  out.append(buffer, end);
}

/// `v` as `os << v` prints a double at the default precision: %g.
/// snprintf, not std::to_chars(double): the latter pulls its
/// shortest-round-trip tables into the resident set.
inline void append_double_g(std::string& out, double v) {
  char buffer[32];
  const int n = std::snprintf(buffer, sizeof(buffer), "%g", v);
  out.append(buffer, static_cast<std::size_t>(n));
}

/// `v` as 16 zero-padded lower-case hex digits: the trace-id rendering
/// the /metrics exemplar suffixes and /fleetz share, so an id greps
/// straight from one into the other.
inline void append_hex16(std::string& out, std::uint64_t v) {
  constexpr char kHex[] = "0123456789abcdef";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kHex[(v >> shift) & 0xF];
  }
}

}  // namespace confcall::support
