// Rolling multichannel STFT: hop-aligned block processing for streaming
// feature extraction.
//
// RollingStft consumes a signal in arbitrary chunks and emits the frames a
// whole-signal framing would (the final partial frame zero-padded) — each
// analysis frame becomes available the moment its last sample arrives, so per-frame
// work can interleave with capture I/O instead of piling up behind the
// endpointer. State (the partial frame spanning a chunk boundary) is
// carried across push() calls, making the emitted frame sequence invariant
// to how the caller chunks the input: one push of N samples and N pushes
// of 1 sample produce bit-identical spectra.
//
// Frames are complex half-spectra (not magnitudes): downstream consumers
// need the phase for cross-spectral statistics (GCC-PHAT, coherence) and
// for exact post-hoc mean removal, and |.| is cheap to take later.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "audio/sample_buffer.h"
#include "dsp/fft.h"
#include "dsp/window.h"

namespace headtalk::dsp {

/// One emitted analysis frame. The spans point into buffers owned by the
/// operator and stay valid until the next push()/pop()/reset().
struct RollingStftFrame {
  /// Frame index (0-based); the frame covers samples
  /// [index * hop_size, index * hop_size + valid).
  std::size_t index = 0;
  /// Samples actually present; < frame_size only for the zero-padded
  /// trailing frames emitted after finish().
  std::size_t valid = 0;
  /// Windowed, zero-padded time-domain frame per channel (frame_size each).
  std::span<const std::vector<audio::Sample>> windowed;
  /// Half spectrum of the windowed frame per channel, at fft_size.
  std::span<const HalfSpectrum> spectra;
};

class RollingStft {
 public:
  struct Config {
    std::size_t channels = 1;
    std::size_t frame_size = 1024;  ///< analysis window length
    std::size_t hop_size = 512;     ///< frame advance
    /// Transform length; 0 = next_pow2(frame_size). May exceed frame_size
    /// when the consumer needs linear-correlation headroom (GCC lags).
    std::size_t fft_size = 0;
    WindowType window = WindowType::kHann;
  };

  /// Re-arms the operator for a new stream. Throws std::invalid_argument
  /// on zero channels/hop or an fft_size smaller than frame_size.
  void reset(const Config& config);

  /// Appends samples to one channel. Every channel must receive the same
  /// number of samples between pop() sweeps (callers feed synchronized
  /// multichannel chunks, so this holds naturally).
  void push(std::size_t channel, std::span<const audio::Sample> samples);

  /// Declares end-of-stream: the remaining partial frames become poppable,
  /// zero-padded exactly as dsp::stft pads the batch signal's tail.
  void finish();

  /// Pops the next frame if one is complete (or, after finish(), if the
  /// batch framing rule still owes one). Returns false when the operator
  /// is waiting for more input — or, after finish(), when drained.
  [[nodiscard]] bool pop(RollingStftFrame& frame);

  [[nodiscard]] std::size_t channels() const noexcept { return config_.channels; }
  [[nodiscard]] std::size_t frame_size() const noexcept { return config_.frame_size; }
  [[nodiscard]] std::size_t hop_size() const noexcept { return config_.hop_size; }
  [[nodiscard]] std::size_t fft_size() const noexcept { return fft_size_; }
  /// Samples pushed per channel so far (the minimum across channels).
  [[nodiscard]] std::size_t samples_pushed() const noexcept;
  /// Frames emitted so far.
  [[nodiscard]] std::size_t frames_emitted() const noexcept { return emitted_; }
  [[nodiscard]] bool finished() const noexcept { return finished_; }

 private:
  void compact();

  Config config_{};
  std::size_t fft_size_ = 0;
  std::vector<std::vector<audio::Sample>> buffers_;  ///< per-channel pending samples
  std::size_t base_ = 0;      ///< absolute stream index of buffers_[c][0]
  std::size_t emitted_ = 0;   ///< frames popped so far
  bool finished_ = false;
  const std::vector<double>* window_ = nullptr;       ///< interned coefficients
  std::vector<std::vector<audio::Sample>> windowed_;  ///< per-channel frame scratch
  std::vector<HalfSpectrum> spectra_;                 ///< per-channel spectrum scratch
  FftScratch fft_scratch_;
};

}  // namespace headtalk::dsp
