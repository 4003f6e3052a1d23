#include "audio/wav_io.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

namespace headtalk::audio {
namespace {

static_assert(std::endian::native == std::endian::little,
              "wav_io assumes a little-endian host");

// Every parse/IO error names the file and the byte offset where reading
// stopped, so a corrupt capture inside a 10k-file corpus is identifiable
// from the message alone.
[[noreturn]] void fail_read(std::istream& in, const std::filesystem::path& path,
                            const std::string& what) {
  in.clear();  // a failed read poisons the stream; clear so tellg() answers
  const auto pos = static_cast<long long>(std::streamoff(in.tellg()));
  std::string message = "read_wav: " + what + " in " + path.string();
  if (pos >= 0) message += " at byte offset " + std::to_string(pos);
  throw std::runtime_error(message);
}

[[noreturn]] void fail_write(std::ostream& out, const std::filesystem::path& path,
                             const std::string& what) {
  out.clear();
  const auto pos = static_cast<long long>(std::streamoff(out.tellp()));
  std::string message = "write_wav: " + what + " on " + path.string();
  if (pos >= 0) message += " at byte offset " + std::to_string(pos);
  throw std::runtime_error(message);
}

template <typename T>
void write_le(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_le(std::istream& in, const std::filesystem::path& path, const char* what) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) fail_read(in, path, std::string("truncated ") + what);
  return value;
}

void write_tag(std::ostream& out, const char (&tag)[5]) { out.write(tag, 4); }

std::array<char, 4> read_tag(std::istream& in, const std::filesystem::path& path,
                             const char* what) {
  std::array<char, 4> tag{};
  in.read(tag.data(), 4);
  if (!in) fail_read(in, path, std::string("truncated ") + what);
  return tag;
}

bool tag_is(const std::array<char, 4>& tag, const char (&expected)[5]) {
  return std::memcmp(tag.data(), expected, 4) == 0;
}

}  // namespace

void write_wav(const std::filesystem::path& path, const MultiBuffer& audio,
               WavEncoding encoding) {
  if (audio.channel_count() == 0) {
    throw std::runtime_error("write_wav: no channels to write to " + path.string());
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("write_wav: cannot open " + path.string());

  const auto channels = static_cast<std::uint16_t>(audio.channel_count());
  const auto rate = static_cast<std::uint32_t>(audio.sample_rate());
  const std::uint16_t bits = encoding == WavEncoding::kPcm16 ? 16 : 32;
  const std::uint16_t format = encoding == WavEncoding::kPcm16 ? 1 : 3;
  const std::uint16_t block_align = static_cast<std::uint16_t>(channels * bits / 8);
  const auto data_bytes =
      static_cast<std::uint32_t>(audio.frames() * block_align);

  write_tag(out, "RIFF");
  write_le<std::uint32_t>(out, 36 + data_bytes);
  write_tag(out, "WAVE");
  write_tag(out, "fmt ");
  write_le<std::uint32_t>(out, 16);
  write_le<std::uint16_t>(out, format);
  write_le<std::uint16_t>(out, channels);
  write_le<std::uint32_t>(out, rate);
  write_le<std::uint32_t>(out, rate * block_align);
  write_le<std::uint16_t>(out, block_align);
  write_le<std::uint16_t>(out, bits);
  write_tag(out, "data");
  write_le<std::uint32_t>(out, data_bytes);
  if (!out) fail_write(out, path, "header write failure");

  for (std::size_t i = 0; i < audio.frames(); ++i) {
    for (std::size_t c = 0; c < audio.channel_count(); ++c) {
      const double s = audio.channel(c)[i];
      if (encoding == WavEncoding::kPcm16) {
        const double clipped = std::clamp(s, -1.0, 1.0);
        write_le<std::int16_t>(out, static_cast<std::int16_t>(
                                        std::lround(clipped * 32767.0)));
      } else {
        write_le<float>(out, static_cast<float>(s));
      }
    }
  }
  if (!out) fail_write(out, path, "sample write failure");
}

void write_wav(const std::filesystem::path& path, const Buffer& audio,
               WavEncoding encoding) {
  write_wav(path, MultiBuffer(std::vector<Buffer>{audio}), encoding);
}

MultiBuffer read_wav(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("read_wav: cannot open " + path.string());

  if (!tag_is(read_tag(in, path, "RIFF header"), "RIFF")) {
    fail_read(in, path, "not a RIFF file");
  }
  (void)read_le<std::uint32_t>(in, path, "RIFF size");
  if (!tag_is(read_tag(in, path, "WAVE tag"), "WAVE")) {
    fail_read(in, path, "not a WAVE file");
  }

  std::uint16_t format = 0, channels = 0, bits = 0;
  std::uint32_t rate = 0;
  std::vector<char> data;
  std::error_code size_error;
  const std::uintmax_t file_bytes = std::filesystem::file_size(path, size_error);

  while (in) {
    std::array<char, 4> tag{};
    in.read(tag.data(), 4);
    if (!in) break;
    const auto chunk_size = read_le<std::uint32_t>(in, path, "chunk size");
    if (tag_is(tag, "fmt ")) {
      format = read_le<std::uint16_t>(in, path, "fmt chunk");
      channels = read_le<std::uint16_t>(in, path, "fmt chunk");
      rate = read_le<std::uint32_t>(in, path, "fmt chunk");
      (void)read_le<std::uint32_t>(in, path, "fmt chunk");  // byte rate
      (void)read_le<std::uint16_t>(in, path, "fmt chunk");  // block align
      bits = read_le<std::uint16_t>(in, path, "fmt chunk");
      if (chunk_size > 16) in.seekg(chunk_size - 16, std::ios::cur);
    } else if (tag_is(tag, "data")) {
      // Bound the allocation by what the file can hold: a hostile size
      // field must not reserve up to 4 GiB before the read fails.
      const auto offset = static_cast<std::uintmax_t>(std::streamoff(in.tellg()));
      if (!size_error && chunk_size > file_bytes - std::min(file_bytes, offset)) {
        fail_read(in, path,
                  "truncated data chunk (declares " + std::to_string(chunk_size) +
                      " bytes, " + std::to_string(file_bytes - std::min(file_bytes, offset)) +
                      " left)");
      }
      data.resize(chunk_size);
      in.read(data.data(), chunk_size);
      if (!in) fail_read(in, path, "truncated data chunk");
    } else {
      in.seekg(chunk_size + (chunk_size & 1u), std::ios::cur);
    }
  }

  if (channels == 0 || rate == 0) fail_read(in, path, "missing fmt chunk");
  const bool pcm16 = format == 1 && bits == 16;
  const bool f32 = format == 3 && bits == 32;
  if (!pcm16 && !f32) {
    fail_read(in, path,
              "unsupported encoding (format " + std::to_string(format) + ", " +
                  std::to_string(bits) + "-bit)");
  }

  const std::size_t bytes_per_sample = bits / 8;
  const std::size_t frame_bytes = bytes_per_sample * channels;
  const std::size_t frames = frame_bytes == 0 ? 0 : data.size() / frame_bytes;

  MultiBuffer out(channels, frames, static_cast<double>(rate));
  const char* p = data.data();
  for (std::size_t i = 0; i < frames; ++i) {
    for (std::size_t c = 0; c < channels; ++c) {
      if (pcm16) {
        std::int16_t v;
        std::memcpy(&v, p, 2);
        out.channel(c)[i] = static_cast<double>(v) / 32767.0;
      } else {
        float v;
        std::memcpy(&v, p, 4);
        if (!std::isfinite(v)) {
          throw std::runtime_error(
              "read_wav: non-finite sample at index " + std::to_string(i * channels + c) +
              " (frame " + std::to_string(i) + ", channel " + std::to_string(c) + ") in " +
              path.string());
        }
        out.channel(c)[i] = static_cast<double>(v);
      }
      p += bytes_per_sample;
    }
  }
  return out;
}

}  // namespace headtalk::audio
