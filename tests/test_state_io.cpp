// Unit tests for the durable-state file format (support/state_io.h):
// writer/reader round trips, bounds-checked decoding, bundle framing,
// atomic file replacement, and the load-side corruption taxonomy — a
// truncation sweep over every prefix length, single-bit flips across the
// whole file, version skew and magic damage must all come back as typed
// cold-start statuses, never a throw or a silent acceptance.
#include "support/state_io.h"

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace confcall::support {
namespace {

// Unique-per-test temp path in the build directory; removed on teardown.
class StateIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "state_io_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
  }
  void TearDown() override { (void)std::remove(path_.c_str()); }

  static std::string read_raw(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  static void write_raw(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  static StateBundle sample_bundle() {
    StateWriter alpha;
    alpha.put_u8(7);
    alpha.put_u32(0xdeadbeef);
    alpha.put_u64(std::numeric_limits<std::uint64_t>::max());
    alpha.put_f64(0.1);
    alpha.put_bytes("hello");
    StateWriter beta;
    beta.put_f64(-0.0);
    beta.put_bytes("");
    StateBundle bundle;
    bundle.add("alpha", 1, std::move(alpha).take());
    bundle.add("beta", 3, std::move(beta).take());
    return bundle;
  }

  std::string path_;
};

TEST_F(StateIoTest, WriterReaderRoundTripIsBitExact) {
  StateWriter writer;
  writer.put_u8(0xff);
  writer.put_u32(0x01020304);
  writer.put_u64(0x0102030405060708ull);
  writer.put_f64(3.14159265358979);
  writer.put_f64(-0.0);
  writer.put_f64(std::numeric_limits<double>::infinity());
  writer.put_bytes("payload with \0 byte inside" /* stops at NUL */);
  writer.put_bytes(std::string_view("\x00\x01\x02", 3));

  StateReader reader(writer.bytes());
  EXPECT_EQ(reader.get_u8(), 0xff);
  EXPECT_EQ(reader.get_u32(), 0x01020304u);
  EXPECT_EQ(reader.get_u64(), 0x0102030405060708ull);
  EXPECT_DOUBLE_EQ(reader.get_f64(), 3.14159265358979);
  const double negzero = reader.get_f64();
  EXPECT_EQ(negzero, 0.0);
  EXPECT_TRUE(std::signbit(negzero));  // bit-exact, not value-equal
  EXPECT_EQ(reader.get_f64(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(reader.get_bytes(), "payload with ");
  EXPECT_EQ(reader.get_bytes(), std::string_view("\x00\x01\x02", 3));
  EXPECT_TRUE(reader.at_end());
}

TEST_F(StateIoTest, ReaderThrowsOnEveryShortRead) {
  StateWriter writer;
  writer.put_u32(42);
  const std::string bytes = std::move(writer).take();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    StateReader reader(std::string_view(bytes).substr(0, len));
    EXPECT_THROW((void)reader.get_u32(), StateFormatError) << "len=" << len;
  }
  StateReader ok(bytes);
  EXPECT_EQ(ok.get_u32(), 42u);
}

TEST_F(StateIoTest, ReaderRejectsByteStringPastEnd) {
  StateWriter writer;
  writer.put_u64(1000);  // length prefix promising bytes that are not there
  StateReader reader(writer.bytes());
  EXPECT_THROW((void)reader.get_bytes(), StateFormatError);
}

TEST_F(StateIoTest, GetCountCapsAllocationSizes) {
  StateWriter writer;
  writer.put_u64(std::numeric_limits<std::uint64_t>::max());
  StateReader reader(writer.bytes());
  EXPECT_THROW((void)reader.get_count(1 << 20), StateFormatError);
  StateWriter small;
  small.put_u64(17);
  StateReader ok(small.bytes());
  EXPECT_EQ(ok.get_count(17), 17u);
}

TEST_F(StateIoTest, BundleRoundTripPreservesSectionsAndOrder) {
  const StateBundle bundle = sample_bundle();
  const std::string payload = bundle.serialize();
  const StateBundle back = StateBundle::deserialize(payload);
  ASSERT_EQ(back.sections().size(), 2u);
  EXPECT_EQ(back.sections()[0].name, "alpha");
  EXPECT_EQ(back.sections()[1].name, "beta");
  EXPECT_EQ(back.sections()[1].version, 3u);
  const StateSection* alpha = back.find("alpha");
  ASSERT_NE(alpha, nullptr);
  EXPECT_EQ(alpha->payload, bundle.sections()[0].payload);
  EXPECT_EQ(back.find("gamma"), nullptr);
}

TEST_F(StateIoTest, BundleRejectsTrailingBytes) {
  std::string payload = sample_bundle().serialize();
  payload.push_back('\x00');
  EXPECT_THROW((void)StateBundle::deserialize(payload), StateFormatError);
}

TEST_F(StateIoTest, SerializationIsDeterministic) {
  EXPECT_EQ(sample_bundle().serialize(), sample_bundle().serialize());
}

TEST_F(StateIoTest, AtomicWriteReplacesWithoutTornIntermediate) {
  ASSERT_TRUE(write_file_atomic(path_, "first version"));
  EXPECT_EQ(read_raw(path_), "first version");
  ASSERT_TRUE(write_file_atomic(path_, "second"));
  EXPECT_EQ(read_raw(path_), "second");
  // No temp droppings left behind.
  EXPECT_EQ(read_raw(path_ + ".tmp." + std::to_string(::getpid())), "");
}

TEST_F(StateIoTest, AtomicWriteReportsUnwritableDirectory) {
  std::string error;
  EXPECT_FALSE(write_file_atomic("/nonexistent-dir/x/y.bin", "x", &error));
  EXPECT_NE(error.find("open"), std::string::npos);
}

TEST_F(StateIoTest, SaveLoadRoundTrip) {
  const std::size_t bytes = save_state_file(path_, sample_bundle());
  EXPECT_EQ(bytes, read_raw(path_).size());
  const StateLoadResult result = load_state_file(path_);
  ASSERT_TRUE(result.ok()) << result.message;
  ASSERT_EQ(result.bundle.sections().size(), 2u);
  const StateSection* beta = result.bundle.find("beta");
  ASSERT_NE(beta, nullptr);
  EXPECT_EQ(beta->version, 3u);
  StateReader reader(beta->payload);
  const double negzero = reader.get_f64();
  EXPECT_TRUE(std::signbit(negzero));
  EXPECT_EQ(reader.get_bytes(), "");
  EXPECT_TRUE(reader.at_end());
}

TEST_F(StateIoTest, MissingFileIsAcountedColdStartNotAnError) {
  const StateLoadResult result = load_state_file("no_such_state_file.bin");
  EXPECT_EQ(result.status, StateLoadStatus::kMissing);
  EXPECT_STREQ(state_load_status_name(result.status), "missing");
}

// What load_state_file saw when it read through std::ifstream, before it
// read with open/read: the open failure as a status and message, or the
// bytes (`opened`).
struct StreamRead {
  bool opened = false;
  StateLoadStatus status = StateLoadStatus::kOk;
  std::string message;
  std::string bytes;
};

StreamRead stream_read(const std::string& path) {
  StreamRead read;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    const bool missing = errno == ENOENT;
    read.status =
        missing ? StateLoadStatus::kMissing : StateLoadStatus::kIoError;
    read.message = "open " + path + ": " + std::strerror(errno);
    return read;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    read.status = StateLoadStatus::kIoError;
    read.message = "read " + path + " failed";
    return read;
  }
  read.opened = true;
  read.bytes = buffer.str();
  return read;
}

TEST_F(StateIoTest, LoadMatchesTheStreamReaderOnEveryPath) {
  (void)save_state_file(path_, sample_bundle());
  const std::string valid = read_raw(path_);
  const std::string missing = path_ + ".missing";
  const std::string directory = path_ + ".dir";
  const std::string unreadable = path_ + ".unreadable";
  const std::string short_header = path_ + ".short";
  const std::string cut_payload = path_ + ".cut";
  const std::string replay = path_ + ".replay";
  ASSERT_EQ(::mkdir(directory.c_str(), 0700), 0);
  write_raw(unreadable, valid);
  ASSERT_EQ(::chmod(unreadable.c_str(), 0), 0);
  write_raw(short_header, valid.substr(0, 20));
  write_raw(cut_payload, valid.substr(0, valid.size() - 3));

  const std::vector<std::string> paths = {
      missing, directory,  unreadable, short_header,
      cut_payload, path_, "/dev/null"};
  for (const std::string& path : paths) {
    const StateLoadResult loaded = load_state_file(path);
    const StreamRead reference = stream_read(path);
    if (!reference.opened) {
      EXPECT_EQ(loaded.status, reference.status) << path;
      EXPECT_EQ(loaded.message, reference.message) << path;
      continue;
    }
    // The bytes the stream read, loaded back from a plain file, must
    // classify exactly as the new reader classifies the path itself.
    write_raw(replay, reference.bytes);
    const StateLoadResult replayed = load_state_file(replay);
    EXPECT_EQ(loaded.status, replayed.status) << path;
    EXPECT_EQ(loaded.message, replayed.message) << path;
  }
  EXPECT_EQ(load_state_file(missing).status, StateLoadStatus::kMissing);
  // A directory opens and reads as no bytes at all.
  const StateLoadResult dir = load_state_file(directory);
  EXPECT_EQ(dir.status, StateLoadStatus::kTruncated);
  EXPECT_EQ(dir.message, "file is 0 bytes, shorter than the 28-byte header");
  EXPECT_EQ(load_state_file(short_header).status, StateLoadStatus::kTruncated);
  EXPECT_EQ(load_state_file(cut_payload).status, StateLoadStatus::kTruncated);
  // Mode 0 stops every user but root, who reads the file anyway.
  EXPECT_EQ(load_state_file(unreadable).status,
            ::geteuid() == 0 ? StateLoadStatus::kOk
                             : StateLoadStatus::kIoError);

  (void)::rmdir(directory.c_str());
  for (const std::string& path : {unreadable, short_header, cut_payload,
                                  replay}) {
    (void)std::remove(path.c_str());
  }
}

TEST_F(StateIoTest, TruncationSweepEveryPrefixIsRejected) {
  (void)save_state_file(path_, sample_bundle());
  const std::string whole = read_raw(path_);
  ASSERT_GT(whole.size(), 28u);
  // Every strict prefix must load as a typed failure — never ok, never an
  // uncaught exception. This is the torn-write model: rename makes torn
  // files unreachable in practice, but the loader must still hold.
  for (std::size_t len = 0; len < whole.size(); ++len) {
    write_raw(path_, whole.substr(0, len));
    const StateLoadResult result = load_state_file(path_);
    EXPECT_FALSE(result.ok()) << "prefix length " << len;
    EXPECT_TRUE(result.status == StateLoadStatus::kTruncated ||
                result.status == StateLoadStatus::kBadChecksum)
        << "prefix length " << len << " -> "
        << state_load_status_name(result.status);
  }
}

TEST_F(StateIoTest, BitFlipSweepIsDetected) {
  (void)save_state_file(path_, sample_bundle());
  const std::string whole = read_raw(path_);
  // Flip one bit per byte position across the file; every variant must be
  // rejected (magic/version/length damage hits the header checks, payload
  // damage hits the checksum, checksum-field damage mismatches payload).
  for (std::size_t pos = 0; pos < whole.size(); ++pos) {
    std::string bent = whole;
    bent[pos] = static_cast<char>(bent[pos] ^ (1 << (pos % 8)));
    write_raw(path_, bent);
    const StateLoadResult result = load_state_file(path_);
    EXPECT_FALSE(result.ok()) << "flipped bit at byte " << pos;
  }
  // And the pristine bytes still load.
  write_raw(path_, whole);
  EXPECT_TRUE(load_state_file(path_).ok());
}

TEST_F(StateIoTest, VersionSkewIsTypedNotFatal) {
  (void)save_state_file(path_, sample_bundle());
  std::string bent = read_raw(path_);
  bent[8] = static_cast<char>(kStateFileVersion + 1);  // u32 LE low byte
  write_raw(path_, bent);
  const StateLoadResult result = load_state_file(path_);
  EXPECT_EQ(result.status, StateLoadStatus::kBadVersion);
  EXPECT_NE(result.message.find("version"), std::string::npos);
}

TEST_F(StateIoTest, ForeignMagicIsRejected) {
  write_raw(path_, std::string("NOTCONFC") + std::string(40, 'x'));
  EXPECT_EQ(load_state_file(path_).status, StateLoadStatus::kBadMagic);
}

TEST_F(StateIoTest, GarbagePayloadUnderValidChecksumIsBadFormat) {
  // Forge a file whose header is internally consistent but whose payload
  // is not valid bundle framing: the checksum passes, deserialize must
  // catch it as kBadFormat.
  const std::string payload(16, '\xff');  // section count is huge
  std::string file;
  file.append("CONFCKPT");
  for (int i = 0; i < 4; ++i) {
    file.push_back(static_cast<char>((kStateFileVersion >> (8 * i)) & 0xff));
  }
  for (int i = 0; i < 8; ++i) {
    file.push_back(static_cast<char>((payload.size() >> (8 * i)) & 0xff));
  }
  const std::uint64_t sum = state_checksum(payload);
  for (int i = 0; i < 8; ++i) {
    file.push_back(static_cast<char>((sum >> (8 * i)) & 0xff));
  }
  file.append(payload);
  write_raw(path_, file);
  const StateLoadResult result = load_state_file(path_);
  EXPECT_EQ(result.status, StateLoadStatus::kBadFormat);
}

}  // namespace
}  // namespace confcall::support
