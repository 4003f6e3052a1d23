#include "audio/wav_io.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

namespace headtalk::audio {
namespace {

class WavIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("headtalk_wav_test_" + std::to_string(::getpid()) + ".wav");
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }
  std::filesystem::path path_;
};

MultiBuffer make_test_signal(std::size_t channels, std::size_t frames) {
  MultiBuffer m(channels, frames, 48000.0);
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t i = 0; i < frames; ++i) {
      m.channel(c)[i] =
          0.5 * std::sin(2.0 * 3.14159265 * (440.0 + 100.0 * static_cast<double>(c)) *
                         static_cast<double>(i) / 48000.0);
    }
  }
  return m;
}

TEST_F(WavIoTest, Pcm16RoundTripMono) {
  const auto original = make_test_signal(1, 480);
  write_wav(path_, original, WavEncoding::kPcm16);
  const auto loaded = read_wav(path_);
  ASSERT_EQ(loaded.channel_count(), 1u);
  ASSERT_EQ(loaded.frames(), 480u);
  EXPECT_DOUBLE_EQ(loaded.sample_rate(), 48000.0);
  for (std::size_t i = 0; i < 480; ++i) {
    EXPECT_NEAR(loaded.channel(0)[i], original.channel(0)[i], 1.0 / 32767.0);
  }
}

TEST_F(WavIoTest, Float32RoundTripMultichannel) {
  const auto original = make_test_signal(4, 256);
  write_wav(path_, original, WavEncoding::kFloat32);
  const auto loaded = read_wav(path_);
  ASSERT_EQ(loaded.channel_count(), 4u);
  ASSERT_EQ(loaded.frames(), 256u);
  for (std::size_t c = 0; c < 4; ++c) {
    for (std::size_t i = 0; i < 256; ++i) {
      EXPECT_NEAR(loaded.channel(c)[i], original.channel(c)[i], 1e-6);
    }
  }
}

TEST_F(WavIoTest, Pcm16ClipsOutOfRangeSamples) {
  MultiBuffer m(1, 3, 48000.0);
  m.channel(0)[0] = 2.0;
  m.channel(0)[1] = -2.0;
  m.channel(0)[2] = 0.0;
  write_wav(path_, m, WavEncoding::kPcm16);
  const auto loaded = read_wav(path_);
  EXPECT_NEAR(loaded.channel(0)[0], 1.0, 1e-4);
  EXPECT_NEAR(loaded.channel(0)[1], -1.0, 1e-4);
}

TEST_F(WavIoTest, MonoBufferOverload) {
  Buffer b({0.1, -0.2, 0.3}, 16000.0);
  write_wav(path_, b);
  const auto loaded = read_wav(path_);
  EXPECT_EQ(loaded.channel_count(), 1u);
  EXPECT_DOUBLE_EQ(loaded.sample_rate(), 16000.0);
}

TEST_F(WavIoTest, ThrowsOnMissingFile) {
  EXPECT_THROW((void)read_wav("/nonexistent/dir/file.wav"), std::runtime_error);
}

TEST_F(WavIoTest, ThrowsOnGarbageFile) {
  std::ofstream(path_) << "this is not a wav file at all";
  EXPECT_THROW((void)read_wav(path_), std::runtime_error);
}

TEST_F(WavIoTest, ThrowsOnZeroChannels) {
  MultiBuffer empty;
  EXPECT_THROW(write_wav(path_, empty), std::runtime_error);
}

// A corrupt capture in a 10k-file corpus must be identifiable from the
// exception message alone: every read error names the file and the byte
// offset where parsing stopped.
TEST_F(WavIoTest, ErrorMessagesNameTheFile) {
  std::ofstream(path_) << "RIFFxxxxJUNK";
  try {
    (void)read_wav(path_);
    FAIL() << "expected read_wav to throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path_.string()), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
  }
}

TEST_F(WavIoTest, TruncatedHeaderErrorIncludesOffset) {
  std::ofstream(path_, std::ios::binary) << "RI";  // shorter than one tag
  try {
    (void)read_wav(path_);
    FAIL() << "expected read_wav to throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find(path_.string()), std::string::npos) << what;
  }
}

TEST_F(WavIoTest, TruncatedDataChunkErrorNamesFile) {
  // Write a valid capture, then chop the data chunk short.
  write_wav(path_, make_test_signal(1, 480), WavEncoding::kPcm16);
  const auto full_size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full_size - 100);
  try {
    (void)read_wav(path_);
    FAIL() << "expected read_wav to throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("data chunk"), std::string::npos) << what;
    EXPECT_NE(what.find(path_.string()), std::string::npos) << what;
  }
}

TEST_F(WavIoTest, RejectsNonFiniteFloatSampleNamingFileAndIndex) {
  auto capture = make_test_signal(2, 64);
  capture.channel(1)[10] = std::numeric_limits<double>::quiet_NaN();
  write_wav(path_, capture, WavEncoding::kFloat32);
  try {
    (void)read_wav(path_);
    FAIL() << "expected read_wav to throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("non-finite"), std::string::npos) << what;
    EXPECT_NE(what.find("index 21"), std::string::npos) << what;  // frame 10, channel 1
    EXPECT_NE(what.find(path_.string()), std::string::npos) << what;
  }
  capture.channel(1)[10] = 0.0;
  capture.channel(0)[63] = -std::numeric_limits<double>::infinity();
  write_wav(path_, capture, WavEncoding::kFloat32);
  EXPECT_THROW((void)read_wav(path_), std::runtime_error);
}

TEST_F(WavIoTest, HostileDataChunkSizeFailsBeforeAllocating) {
  // A data chunk that claims ~4 GiB in a file of a few hundred bytes must
  // be refused from the size field alone.
  write_wav(path_, make_test_signal(1, 100), WavEncoding::kPcm16);
  {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(40);  // the data chunk's size field in the canonical header
    const std::uint32_t hostile = 0xFFFFFFF0u;
    f.write(reinterpret_cast<const char*>(&hostile), 4);
  }
  try {
    (void)read_wav(path_);
    FAIL() << "expected read_wav to throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("data chunk"), std::string::npos) << what;
    EXPECT_NE(what.find("4294967280 bytes"), std::string::npos) << what;
    EXPECT_NE(what.find(path_.string()), std::string::npos) << what;
  }
}

TEST_F(WavIoTest, UnsupportedEncodingErrorNamesFormatAndFile) {
  // 8-bit PCM: structurally valid WAV, unsupported sample format.
  std::ofstream out(path_, std::ios::binary);
  auto le16 = [&](std::uint16_t v) { out.write(reinterpret_cast<char*>(&v), 2); };
  auto le32 = [&](std::uint32_t v) { out.write(reinterpret_cast<char*>(&v), 4); };
  out.write("RIFF", 4);
  le32(36);
  out.write("WAVE", 4);
  out.write("fmt ", 4);
  le32(16);
  le16(1);      // PCM
  le16(1);      // mono
  le32(8000);   // rate
  le32(8000);   // byte rate
  le16(1);      // block align
  le16(8);      // 8-bit — unsupported
  out.write("data", 4);
  le32(0);
  out.close();
  try {
    (void)read_wav(path_);
    FAIL() << "expected read_wav to throw";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unsupported encoding"), std::string::npos) << what;
    EXPECT_NE(what.find("8-bit"), std::string::npos) << what;
    EXPECT_NE(what.find(path_.string()), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace headtalk::audio
