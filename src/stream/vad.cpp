#include "stream/vad.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/spectral.h"

namespace headtalk::stream {
namespace {

constexpr double kSilenceDb = -120.0;

double rms_db(std::span<const audio::Sample> frame) {
  if (frame.empty()) return kSilenceDb;  // no samples: silence, not 0/0 NaN
  double acc = 0.0;
  for (const audio::Sample x : frame) acc += x * x;
  const double rms = std::sqrt(acc / static_cast<double>(frame.size()));
  if (rms <= 0.0) return kSilenceDb;
  return std::max(kSilenceDb, 20.0 * std::log10(rms));
}

}  // namespace

Vad::Vad(VadConfig config, double sample_rate)
    : config_(config),
      sample_rate_(sample_rate),
      frame_length_(static_cast<std::size_t>(
          std::max(1.0, config.frame_ms * sample_rate / 1000.0))),
      // The magnitudes head transforms at least 8 points; only frames of
      // 4 samples or fewer are padded further for it.
      fft_size_(std::max<std::size_t>(8, dsp::next_pow2(frame_length_))),
      noise_floor_db_(config.noise_floor_init_db) {
  if (sample_rate <= 0.0) throw std::invalid_argument("Vad: bad sample rate");
  if (config.frame_ms <= 0.0) throw std::invalid_argument("Vad: bad frame_ms");
  // At least one bin: an empty band measures 0 from it, as it would from
  // the whole spectrum.
  flatness_bins_ = std::max<std::size_t>(
      1, dsp::bin_range(fft_size_ / 2 + 1, fft_size_, sample_rate, config.flatness_low_hz,
                        config.flatness_high_hz)
             .second);
  magnitude_.resize(flatness_bins_);
  pending_.reserve(frame_length_);
}

void Vad::reset() {
  pending_.clear();
  noise_floor_db_ = config_.noise_floor_init_db;
  prev_active_ = false;
  hangover_ = 0;
  next_index_ = 0;
}

std::vector<VadFrame> Vad::push(std::span<const audio::Sample> samples) {
  std::vector<VadFrame> out;
  push(samples, out);
  return out;
}

void Vad::push(std::span<const audio::Sample> samples, std::vector<VadFrame>& out) {
  std::size_t consumed = 0;
  // Top up a partial frame left by the previous push first.
  if (!pending_.empty()) {
    const std::size_t need = frame_length_ - pending_.size();
    const std::size_t take = std::min(need, samples.size());
    pending_.insert(pending_.end(), samples.begin(),
                    samples.begin() + static_cast<std::ptrdiff_t>(take));
    consumed = take;
    if (pending_.size() < frame_length_) return;
    out.push_back(classify(pending_));
    pending_.clear();
  }
  while (samples.size() - consumed >= frame_length_) {
    out.push_back(classify(samples.subspan(consumed, frame_length_)));
    consumed += frame_length_;
  }
  pending_.insert(pending_.end(), samples.begin() + static_cast<std::ptrdiff_t>(consumed),
                  samples.end());
}

VadFrame Vad::classify(std::span<const audio::Sample> frame) {
  VadFrame result;
  result.index = next_index_++;
  result.energy_db = rms_db(frame);

  // The flatness FFT only matters near the decision boundary; frames far
  // below the absolute gate skip it (the common case on an idle stream)
  // and keep the NaN "not measured" marker (see VadFrame::has_flatness).
  if (result.energy_db > config_.min_energy_db - 6.0) {
    dsp::rfft_magnitudes_head<double>(frame, {}, fft_size_, flatness_bins_, magnitude_.data(),
                                      fft_scratch_);
    result.flatness =
        dsp::spectral_flatness(magnitude_, fft_size_, sample_rate_,
                               config_.flatness_low_hz, config_.flatness_high_hz);
  }
  result.noise_floor_db = noise_floor_db_;

  const double snr_needed = prev_active_ ? config_.offset_snr_db : config_.onset_snr_db;
  const bool energetic = result.energy_db >= config_.min_energy_db &&
                         result.energy_db >= noise_floor_db_ + snr_needed;
  // An unmeasured flatness never counts as speech-like; such frames are at
  // least 6 dB under the absolute gate, so they could not be active anyway
  // and the overall decision is unchanged.
  const bool speech_like =
      result.has_flatness() && result.flatness <= config_.flatness_max;
  const bool raw_active = energetic && speech_like;
  prev_active_ = raw_active;

  // Asymmetric floor tracking. Every *reported*-active frame — raw-active
  // or hangover tail — is excluded, not just raw-active ones: hangover
  // frames are inter-word dips and utterance tails whose energy is still
  // mostly speech, and adapting on them let a long utterance ratchet the
  // floor up word by word until its own offsets stopped clearing the SNR
  // margin and the segment broke apart. Inactive frames adapt — up slowly
  // (a loudening room; damped further when the frame is onset-loud, see
  // noise_adapt_up_speech_damping), down fast (a quieting one).
  const bool reported_active = raw_active || hangover_ > 0;
  if (!reported_active) {
    double rate = config_.noise_adapt_down;
    if (result.energy_db > noise_floor_db_) {
      rate = config_.noise_adapt_up;
      if (result.energy_db >= noise_floor_db_ + config_.onset_snr_db) {
        rate *= config_.noise_adapt_up_speech_damping;
      }
    }
    noise_floor_db_ += rate * (result.energy_db - noise_floor_db_);
  }

  if (raw_active) {
    hangover_ = config_.hangover_frames;
    result.active = true;
  } else if (hangover_ > 0) {
    --hangover_;
    result.active = true;  // tail hangover: keep weak endings attached
  }
  return result;
}

}  // namespace headtalk::stream
