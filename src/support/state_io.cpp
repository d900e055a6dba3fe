#include "support/state_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace confcall::support {

namespace {

// File header layout (all little-endian):
//   [0..8)   magic "CONFCKPT"
//   [8..12)  file-format version (u32)
//   [12..20) payload length (u64)
//   [20..28) FNV-1a-64 checksum of the payload
//   [28..)   payload (StateBundle framing)
constexpr char kMagic[8] = {'C', 'O', 'N', 'F', 'C', 'K', 'P', 'T'};
constexpr std::size_t kHeaderBytes = 28;

// Caps on section framing: a corrupt length must fail fast, not size a
// container. Payloads are additionally bounded by the file length, which
// the header check already validated.
constexpr std::uint64_t kMaxSections = 1024;
constexpr std::uint64_t kMaxSectionName = 256;

void append_u32(std::string& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

void append_u64(std::string& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((value >> (8 * i)) & 0xff));
  }
}

std::uint64_t read_u64_at(std::string_view bytes, std::size_t pos) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[pos + i]))
             << (8 * i);
  }
  return value;
}

std::uint32_t read_u32_at(std::string_view bytes, std::size_t pos) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(
                 static_cast<unsigned char>(bytes[pos + i]))
             << (8 * i);
  }
  return value;
}

}  // namespace

void StateWriter::put_u8(std::uint8_t value) {
  out_.push_back(static_cast<char>(value));
}

void StateWriter::put_u32(std::uint32_t value) { append_u32(out_, value); }

void StateWriter::put_u64(std::uint64_t value) { append_u64(out_, value); }

void StateWriter::put_f64(double value) {
  static_assert(sizeof(double) == sizeof(std::uint64_t));
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  append_u64(out_, bits);
}

void StateWriter::put_bytes(std::string_view bytes) {
  append_u64(out_, bytes.size());
  out_.append(bytes.data(), bytes.size());
}

void StateReader::need(std::size_t n) const {
  if (bytes_.size() - pos_ < n) {
    throw StateFormatError("state payload truncated: need " +
                           std::to_string(n) + " bytes at offset " +
                           std::to_string(pos_) + ", have " +
                           std::to_string(bytes_.size() - pos_));
  }
}

std::uint8_t StateReader::get_u8() {
  need(1);
  return static_cast<std::uint8_t>(
      static_cast<unsigned char>(bytes_[pos_++]));
}

std::uint32_t StateReader::get_u32() {
  need(4);
  const std::uint32_t value = read_u32_at(bytes_, pos_);
  pos_ += 4;
  return value;
}

std::uint64_t StateReader::get_u64() {
  need(8);
  const std::uint64_t value = read_u64_at(bytes_, pos_);
  pos_ += 8;
  return value;
}

double StateReader::get_f64() {
  const std::uint64_t bits = get_u64();
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::string_view StateReader::get_bytes() {
  const std::uint64_t len = get_u64();
  if (len > bytes_.size() - pos_) {
    throw StateFormatError("state payload truncated: byte-string length " +
                           std::to_string(len) + " exceeds remaining " +
                           std::to_string(bytes_.size() - pos_));
  }
  const std::string_view view = bytes_.substr(pos_, len);
  pos_ += len;
  return view;
}

std::uint64_t StateReader::get_count(std::uint64_t max) {
  const std::uint64_t value = get_u64();
  if (value > max) {
    throw StateFormatError("state payload count " + std::to_string(value) +
                           " exceeds cap " + std::to_string(max));
  }
  return value;
}

void StateBundle::add(std::string name, std::uint32_t version,
                      std::string payload) {
  sections_.push_back(
      StateSection{std::move(name), version, std::move(payload)});
}

const StateSection* StateBundle::find(std::string_view name) const {
  for (const StateSection& section : sections_) {
    if (section.name == name) return &section;
  }
  return nullptr;
}

std::string StateBundle::serialize() const {
  StateWriter writer;
  writer.put_u64(sections_.size());
  for (const StateSection& section : sections_) {
    writer.put_bytes(section.name);
    writer.put_u32(section.version);
    writer.put_bytes(section.payload);
  }
  return std::move(writer).take();
}

StateBundle StateBundle::deserialize(std::string_view bytes) {
  StateReader reader(bytes);
  StateBundle bundle;
  const std::uint64_t count = reader.get_count(kMaxSections);
  for (std::uint64_t i = 0; i < count; ++i) {
    StateSection section;
    const std::string_view name = reader.get_bytes();
    if (name.size() > kMaxSectionName) {
      throw StateFormatError("state section name too long: " +
                             std::to_string(name.size()) + " bytes");
    }
    section.name.assign(name);
    section.version = reader.get_u32();
    section.payload.assign(reader.get_bytes());
    bundle.sections_.push_back(std::move(section));
  }
  if (!reader.at_end()) {
    throw StateFormatError("state payload has " +
                           std::to_string(reader.remaining()) +
                           " trailing bytes after the last section");
  }
  return bundle;
}

const char* state_load_status_name(StateLoadStatus status) noexcept {
  switch (status) {
    case StateLoadStatus::kOk:
      return "ok";
    case StateLoadStatus::kMissing:
      return "missing";
    case StateLoadStatus::kIoError:
      return "io_error";
    case StateLoadStatus::kTruncated:
      return "truncated";
    case StateLoadStatus::kBadMagic:
      return "bad_magic";
    case StateLoadStatus::kBadVersion:
      return "bad_version";
    case StateLoadStatus::kBadChecksum:
      return "bad_checksum";
    case StateLoadStatus::kBadFormat:
      return "bad_format";
  }
  return "unknown";
}

std::uint64_t state_checksum(std::string_view bytes) noexcept {
  // FNV-1a 64: cheap, dependency-free, and plenty for detecting torn or
  // bit-flipped checkpoints (this is corruption detection, not crypto).
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

bool write_file_atomic(const std::string& path, std::string_view contents,
                       std::string* error) {
  const std::string tmp_path =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    if (error != nullptr) {
      *error = "open " + tmp_path + ": " + std::strerror(errno);
    }
    return false;
  }
  std::size_t written = 0;
  while (written < contents.size()) {
    const ssize_t n =
        ::write(fd, contents.data() + written, contents.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr) {
        *error = "write " + tmp_path + ": " + std::strerror(errno);
      }
      ::close(fd);
      ::unlink(tmp_path.c_str());
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  // fsync before rename: the rename must not become durable before the
  // data, or a crash could expose a complete-looking but empty file.
  if (::fsync(fd) != 0) {
    if (error != nullptr) {
      *error = "fsync " + tmp_path + ": " + std::strerror(errno);
    }
    ::close(fd);
    ::unlink(tmp_path.c_str());
    return false;
  }
  if (::close(fd) != 0) {
    if (error != nullptr) {
      *error = "close " + tmp_path + ": " + std::strerror(errno);
    }
    ::unlink(tmp_path.c_str());
    return false;
  }
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    if (error != nullptr) {
      *error = "rename " + tmp_path + " -> " + path + ": " +
               std::strerror(errno);
    }
    ::unlink(tmp_path.c_str());
    return false;
  }
  return true;
}

std::size_t save_state_file(const std::string& path,
                            const StateBundle& bundle) {
  const std::string payload = bundle.serialize();
  std::string file;
  file.reserve(kHeaderBytes + payload.size());
  file.append(kMagic, sizeof(kMagic));
  append_u32(file, kStateFileVersion);
  append_u64(file, payload.size());
  append_u64(file, state_checksum(payload));
  file.append(payload);
  std::string error;
  if (!write_file_atomic(path, file, &error)) {
    throw std::runtime_error("save_state_file: " + error);
  }
  return file.size();
}

StateLoadResult load_state_file(const std::string& path) {
  StateLoadResult result;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const bool missing = errno == ENOENT;
    result.status =
        missing ? StateLoadStatus::kMissing : StateLoadStatus::kIoError;
    result.message = "open " + path + ": " + std::strerror(errno);
    return result;
  }
  // Straight into the one string the checks below read, sized from
  // fstat. A read error ends the bytes as end of file does, and the
  // header checks classify whatever arrived: a directory opens and reads
  // as a 0-byte file (kTruncated). Those are the statuses checkpoints
  // have always loaded with (a test holds them to a stream reader).
  std::string file;
  struct stat info {};
  file.resize(::fstat(fd, &info) == 0 && info.st_size > 0
                  ? static_cast<std::size_t>(info.st_size) + 1
                  : 4096);
  std::size_t size = 0;
  while (true) {
    if (size == file.size()) file.resize(2 * size);
    const ssize_t n = ::read(fd, file.data() + size, file.size() - size);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    size += static_cast<std::size_t>(n);
  }
  ::close(fd);
  file.resize(size);

  if (file.size() < kHeaderBytes) {
    result.status = StateLoadStatus::kTruncated;
    result.message = "file is " + std::to_string(file.size()) +
                     " bytes, shorter than the " +
                     std::to_string(kHeaderBytes) + "-byte header";
    return result;
  }
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    result.status = StateLoadStatus::kBadMagic;
    result.message = "magic mismatch: not a confcall state file";
    return result;
  }
  const std::uint32_t version = read_u32_at(file, 8);
  if (version != kStateFileVersion) {
    result.status = StateLoadStatus::kBadVersion;
    result.message = "file-format version " + std::to_string(version) +
                     ", this build speaks " +
                     std::to_string(kStateFileVersion);
    return result;
  }
  const std::uint64_t payload_len = read_u64_at(file, 12);
  if (payload_len != file.size() - kHeaderBytes) {
    result.status = StateLoadStatus::kTruncated;
    result.message = "header declares " + std::to_string(payload_len) +
                     " payload bytes, file carries " +
                     std::to_string(file.size() - kHeaderBytes);
    return result;
  }
  const std::string_view payload =
      std::string_view(file).substr(kHeaderBytes);
  const std::uint64_t expected = read_u64_at(file, 20);
  const std::uint64_t actual = state_checksum(payload);
  if (expected != actual) {
    result.status = StateLoadStatus::kBadChecksum;
    result.message = "payload checksum mismatch";
    return result;
  }
  try {
    result.bundle = StateBundle::deserialize(payload);
  } catch (const StateFormatError& e) {
    result.status = StateLoadStatus::kBadFormat;
    result.message = e.what();
    return result;
  }
  result.status = StateLoadStatus::kOk;
  result.message = "ok";
  return result;
}

}  // namespace confcall::support
