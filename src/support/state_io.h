// Durable serving state: versioned, checksummed, atomically-written
// checkpoint files.
//
// The paper's delay constraint is only as good as the state the planner
// learns: sequential-paging performance hinges on the distribution
// knowledge accumulated at runtime (profiles, cached plans) and the SLO
// controller's converged actuator positions. A process restart that
// throws all of that away re-pays the whole convergence transient — many
// control periods of breached p99 — so the serving stack checkpoints its
// learned state and restores it on restart. This module is the file
// format under that contract:
//
//   * Atomic visibility. A checkpoint is written to `<path>.tmp.<pid>`,
//     flushed, then rename(2)d over the target, so a reader (including a
//     restarting self) only ever observes the previous complete file or
//     the new complete file — never a torn hybrid. A crash mid-write
//     leaves at worst a stale temp file, which the next writer replaces.
//   * Self-verifying. The header carries a magic tag, a format version,
//     the payload length and an FNV-1a checksum of the payload. Load
//     verifies all four before handing a single payload byte to a
//     deserializer; truncated, bit-flipped, version-skewed or
//     wrong-format files are reported as a typed StateLoadStatus, NEVER
//     thrown through or silently accepted. The caller's contract is a
//     counted cold start, not a crash.
//   * Sectioned. The payload is a sequence of named, individually
//     versioned sections (location service, SLO controller, ...). A
//     reader that finds its section missing or at an unknown version
//     cold-starts just that component; other sections stay usable. New
//     components append sections without breaking old readers.
//   * Deterministic bytes. Serialization is a pure function of the
//     logical state: fixed little-endian encoding, insertion-ordered
//     sections, no timestamps or pointers. Identical state produces
//     identical files on any thread count (the E19 byte-identity gate).
//
// The primitives (StateWriter / StateReader) are deliberately minimal:
// bounds-checked little-endian scalars, length-prefixed strings, and
// doubles as IEEE-754 bit patterns so round trips are exact to the bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace confcall::support {

/// Thrown by StateReader on any out-of-bounds or malformed read. Always
/// caught at the component-restore boundary and converted into a cold
/// start; it never escapes a load_* entry point.
class StateFormatError : public std::runtime_error {
 public:
  explicit StateFormatError(const std::string& message)
      : std::runtime_error(message) {}
};

/// Append-only little-endian payload builder. All multi-byte values are
/// written least-significant byte first regardless of host order, and
/// doubles as their IEEE-754 bit pattern, so the bytes are a pure
/// function of the values.
class StateWriter {
 public:
  void put_u8(std::uint8_t value);
  void put_u32(std::uint32_t value);
  void put_u64(std::uint64_t value);
  /// Bit-exact: the double's representation, not a decimal rendering.
  void put_f64(double value);
  /// Length-prefixed (u64) byte string.
  void put_bytes(std::string_view bytes);

  [[nodiscard]] const std::string& bytes() const noexcept { return out_; }
  [[nodiscard]] std::string take() && { return std::move(out_); }

 private:
  std::string out_;
};

/// Bounds-checked reader over a payload produced by StateWriter. Every
/// read past the end (or a length prefix pointing past the end) throws
/// StateFormatError.
class StateReader {
 public:
  explicit StateReader(std::string_view bytes) : bytes_(bytes) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] double get_f64();
  [[nodiscard]] std::string_view get_bytes();

  /// get_u64 with an upper bound — for counts about to size containers,
  /// so a corrupt length cannot drive a multi-gigabyte allocation before
  /// the next bounds check would catch it.
  [[nodiscard]] std::uint64_t get_count(std::uint64_t max);

  [[nodiscard]] bool at_end() const noexcept {
    return pos_ == bytes_.size();
  }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - pos_;
  }

 private:
  void need(std::size_t n) const;

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// One named, versioned unit of component state inside a bundle.
struct StateSection {
  std::string name;
  std::uint32_t version = 1;
  std::string payload;
};

/// The checkpoint's logical content: an ordered list of sections.
/// Components find their section by name and check its version
/// themselves; an unknown name or version means "cold-start me", not an
/// error for the bundle as a whole.
class StateBundle {
 public:
  /// Appends a section (insertion order is serialization order — keep it
  /// fixed so identical state yields identical bytes).
  void add(std::string name, std::uint32_t version, std::string payload);

  /// First section with this name; nullptr when absent.
  [[nodiscard]] const StateSection* find(std::string_view name) const;

  [[nodiscard]] const std::vector<StateSection>& sections() const noexcept {
    return sections_;
  }

  /// The bundle payload as bytes (no file header).
  [[nodiscard]] std::string serialize() const;

  /// Parses a payload. Throws StateFormatError on malformed bytes
  /// (callers inside load_state_file convert that to a status).
  [[nodiscard]] static StateBundle deserialize(std::string_view bytes);

 private:
  std::vector<StateSection> sections_;
};

/// Why a load did not produce a usable bundle. Every value except kOk is
/// a counted cold start for the caller.
enum class StateLoadStatus {
  kOk,
  kMissing,      ///< no file at the path (first boot: the normal cold start)
  kIoError,      ///< open failed for another reason (e.g. permissions)
  kTruncated,    ///< shorter than the header or the declared payload
  kBadMagic,     ///< not a confcall state file
  kBadVersion,   ///< file-format version this build does not speak
  kBadChecksum,  ///< payload bytes do not match the header checksum
  kBadFormat,    ///< checksum fine but the section framing is malformed
};

[[nodiscard]] const char* state_load_status_name(
    StateLoadStatus status) noexcept;

struct StateLoadResult {
  StateLoadStatus status = StateLoadStatus::kIoError;
  StateBundle bundle;      ///< meaningful only when ok()
  std::string message;     ///< human-readable detail for logs
  [[nodiscard]] bool ok() const noexcept {
    return status == StateLoadStatus::kOk;
  }
};

/// The file-format version this build writes (and the only one it
/// reads). Bump on any header or framing change.
inline constexpr std::uint32_t kStateFileVersion = 1;

/// FNV-1a 64 over `bytes` — the header checksum. Exposed for tests that
/// forge corrupt files.
[[nodiscard]] std::uint64_t state_checksum(std::string_view bytes) noexcept;

/// Writes `contents` to `path` atomically: temp file in the same
/// directory (`<path>.tmp.<pid>`), fsync, rename over the target.
/// Returns false (with `error` filled when non-null) on any failure; the
/// target is never left torn — either the old file survives or the new
/// one is complete.
bool write_file_atomic(const std::string& path, std::string_view contents,
                       std::string* error = nullptr);

/// Serializes the bundle with the self-verifying header and writes it
/// atomically; returns the total file size in bytes. Throws
/// std::runtime_error on I/O failure (checkpointing callers catch and
/// count; startup callers usually want the throw).
std::size_t save_state_file(const std::string& path,
                            const StateBundle& bundle);

/// Loads and verifies a state file. NEVER throws on bad content: torn,
/// truncated, corrupt, version-skewed or garbage files come back as a
/// typed non-kOk status with a log-ready message.
[[nodiscard]] StateLoadResult load_state_file(const std::string& path);

}  // namespace confcall::support
