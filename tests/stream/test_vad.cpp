// Frame-level VAD: framing/partial-frame carry, the energy and flatness
// gates, hysteresis, the adaptive noise floor, hangover, and the flatness
// against a full-spectrum reference.
#include "stream/vad.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <random>
#include <span>

#include <gtest/gtest.h>

#include "dsp/fft.h"
#include "dsp/spectral.h"

using namespace headtalk;
using namespace headtalk::stream;

namespace {

/// Harmonic (speech-like: tonal, low spectral flatness) signal at a target
/// frame RMS level in dBFS.
std::vector<audio::Sample> tone(std::size_t samples, double rms_db,
                                double sample_rate = audio::kDefaultSampleRate) {
  // Four incoherent harmonics at amplitude amp/2 each sum to an RMS of
  // amp/sqrt(2); solve for the target level.
  const double rms = std::pow(10.0, rms_db / 20.0);
  const double amp = rms * std::sqrt(2.0);
  std::vector<audio::Sample> out(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    const double t = static_cast<double>(i) / sample_rate;
    double v = 0.0;
    for (int h = 1; h <= 4; ++h) {
      v += 0.5 * amp * std::sin(2.0 * std::numbers::pi * 220.0 * h * t);
    }
    out[i] = v;
  }
  return out;
}

std::vector<audio::Sample> white_noise(std::size_t samples, double sigma,
                                       unsigned seed = 5) {
  std::mt19937 rng(seed);
  std::normal_distribution<double> g(0.0, sigma);
  std::vector<audio::Sample> out(samples);
  for (auto& v : out) v = g(rng);
  return out;
}

}  // namespace

TEST(Vad, FrameLengthFollowsConfig) {
  const Vad vad(VadConfig{}, 48000.0);
  EXPECT_EQ(vad.frame_length(), 960u);  // 20 ms at 48 kHz

  VadConfig ten_ms;
  ten_ms.frame_ms = 10.0;
  EXPECT_EQ(Vad(ten_ms, 16000.0).frame_length(), 160u);
}

TEST(Vad, RejectsDegenerateConfig) {
  EXPECT_THROW(Vad(VadConfig{}, 0.0), std::invalid_argument);
  VadConfig bad;
  bad.frame_ms = 0.0;
  EXPECT_THROW(Vad(bad, 48000.0), std::invalid_argument);
}

TEST(Vad, PartialFramesCarryAcrossPushes) {
  Vad vad;
  const auto signal = tone(vad.frame_length() * 2, -20.0);
  const std::span<const audio::Sample> span(signal);

  // 1.5 frames: one completed, half carried.
  auto frames = vad.push(span.subspan(0, vad.frame_length() * 3 / 2));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].index, 0u);

  // The remaining half completes frame 1.
  frames = vad.push(span.subspan(vad.frame_length() * 3 / 2));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].index, 1u);
  EXPECT_EQ(vad.frames_emitted(), 2u);
}

TEST(Vad, SilenceIsInactive) {
  Vad vad;
  const std::vector<audio::Sample> silence(vad.frame_length() * 10, 0.0);
  for (const auto& frame : vad.push(silence)) {
    EXPECT_FALSE(frame.active);
    EXPECT_LE(frame.energy_db, -119.0);
  }
}

TEST(Vad, TonalSpeechIsActiveWhiteNoiseIsNot) {
  Vad vad;
  const auto speech = vad.push(tone(vad.frame_length() * 10, -20.0));
  ASSERT_EQ(speech.size(), 10u);
  for (const auto& frame : speech) {
    EXPECT_TRUE(frame.active) << "frame " << frame.index;
    EXPECT_LT(frame.flatness, vad.config().flatness_max);
  }

  Vad vad2;
  // Loud enough to clear every energy gate; only the flatness gate stands.
  const auto noise = vad2.push(white_noise(vad2.frame_length() * 10, 0.05));
  ASSERT_EQ(noise.size(), 10u);
  for (const auto& frame : noise) {
    EXPECT_FALSE(frame.active) << "frame " << frame.index
                               << " flatness " << frame.flatness;
    EXPECT_GT(frame.flatness, vad2.config().flatness_max);
  }
}

TEST(Vad, HysteresisKeepsFadingSpeechAttached) {
  // At floor + 6 dB (between offset 4 and onset 8) a frame stays active
  // only if the previous raw decision was active.
  VadConfig config;
  config.hangover_frames = 0;  // isolate the hysteresis
  const double fading_db = config.noise_floor_init_db + 6.0;

  Vad fresh(config);
  const auto cold = fresh.push(tone(fresh.frame_length(), fading_db));
  ASSERT_EQ(cold.size(), 1u);
  EXPECT_FALSE(cold[0].active);  // never cleared the onset threshold

  Vad warm(config);
  (void)warm.push(tone(warm.frame_length() * 2, -20.0));  // clearly active
  const auto warm_frames = warm.push(tone(warm.frame_length(), fading_db));
  ASSERT_EQ(warm_frames.size(), 1u);
  EXPECT_TRUE(warm_frames[0].active);  // above the offset threshold
}

TEST(Vad, NoiseFloorTracksQuietRoomFastAndLoudRoomSlowly) {
  Vad vad;
  const double init = vad.config().noise_floor_init_db;
  (void)vad.push(std::vector<audio::Sample>(vad.frame_length() * 20, 0.0));
  EXPECT_LT(vad.noise_floor_db(), init - 10.0);  // fell fast toward silence

  Vad loudening;
  // White noise well above the initial floor: inactive (flat), so the floor
  // adapts — but upward only slowly.
  (void)loudening.push(white_noise(loudening.frame_length() * 20, 0.05));
  EXPECT_GT(loudening.noise_floor_db(), init);
  EXPECT_LT(loudening.noise_floor_db(), init + 15.0);
}

TEST(Vad, NoiseFloorIsFrozenThroughALongUtterance) {
  // Regression: inter-word dips are raw-inactive (the flatness gate
  // rejects them) but still reported active through the hangover — and
  // their energy is speech spill, not room noise. The floor used to adapt
  // upward on every such frame, so a long utterance ratcheted it word by
  // word until its own offsets stopped clearing the SNR margin. Reported-
  // active frames must leave the floor exactly where it was.
  Vad vad;
  const std::size_t len = vad.frame_length();
  (void)vad.push(std::vector<audio::Sample>(len * 20, 0.0));  // settle on silence
  const double floor_before = vad.noise_floor_db();

  // 4 s of "speech": three tonal frames, then a two-frame breathy dip that
  // rides the hangover (hangover_frames = 2), repeated.
  std::vector<audio::Sample> utterance;
  for (unsigned rep = 0; rep < 40; ++rep) {
    const auto word = tone(len * 3, -20.0);
    const auto dip = white_noise(len * 2, 0.02, /*seed=*/100 + rep);
    utterance.insert(utterance.end(), word.begin(), word.end());
    utterance.insert(utterance.end(), dip.begin(), dip.end());
  }
  const auto frames = vad.push(utterance);
  ASSERT_EQ(frames.size(), 200u);
  for (const auto& frame : frames) {
    EXPECT_TRUE(frame.active) << "frame " << frame.index;
  }
  EXPECT_DOUBLE_EQ(vad.noise_floor_db(), floor_before);
}

TEST(Vad, OnsetLoudNonSpeechAdaptsOnlyDamped) {
  // A frame loud enough to have fired an onset but rejected by the speech
  // gates follows the floor at the damped rate: the floor still moves (a
  // genuinely louder room is eventually tracked) but a burst cannot yank
  // it up.
  Vad vad;
  const double init = vad.config().noise_floor_init_db;
  (void)vad.push(white_noise(vad.frame_length() * 10, 0.05));  // ~-26 dBFS, flat
  EXPECT_GT(vad.noise_floor_db(), init);
  EXPECT_LT(vad.noise_floor_db(), init + 2.0);  // undamped would be ~+5 dB here
}

TEST(Vad, HangoverExtendsUtteranceTail) {
  VadConfig config;
  config.hangover_frames = 2;
  Vad vad(config);
  (void)vad.push(tone(vad.frame_length() * 3, -20.0));
  const auto tail = vad.push(std::vector<audio::Sample>(vad.frame_length() * 4, 0.0));
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_TRUE(tail[0].active);   // hangover frame 1
  EXPECT_TRUE(tail[1].active);   // hangover frame 2
  EXPECT_FALSE(tail[2].active);  // hangover spent
  EXPECT_FALSE(tail[3].active);
}

TEST(Vad, SkippedFlatnessIsMarkedUnmeasured) {
  // Frames far under the energy gate skip the flatness FFT. They must
  // report "not measured" (NaN + has_flatness() false), not the old
  // fabricated default that metrics consumers mistook for a reading.
  Vad vad;
  const auto quiet = vad.push(std::vector<audio::Sample>(vad.frame_length() * 3, 0.0));
  ASSERT_EQ(quiet.size(), 3u);
  for (const auto& frame : quiet) {
    EXPECT_FALSE(frame.has_flatness()) << "frame " << frame.index;
    EXPECT_TRUE(std::isnan(frame.flatness)) << "frame " << frame.index;
    EXPECT_FALSE(frame.active);
  }

  const auto loud = vad.push(tone(vad.frame_length(), -20.0));
  ASSERT_EQ(loud.size(), 1u);
  EXPECT_TRUE(loud[0].has_flatness());
  EXPECT_FALSE(std::isnan(loud[0].flatness));
}

TEST(Vad, NearGateFramesStillMeasureFlatness) {
  // The skip threshold sits 6 dB under the absolute gate: a frame between
  // the two is inactive but must still carry a real flatness measurement.
  Vad vad;
  const double near_gate_db = vad.config().min_energy_db - 3.0;
  const auto frames = vad.push(tone(vad.frame_length(), near_gate_db));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_TRUE(frames[0].has_flatness());
  EXPECT_FALSE(frames[0].active);
}

TEST(Vad, EmptyAndZeroInputAreSafe) {
  Vad vad;
  EXPECT_TRUE(vad.push({}).empty());
  EXPECT_EQ(vad.frames_emitted(), 0u);
  // All-zero frames must produce the silence floor, never a NaN energy.
  const auto frames = vad.push(std::vector<audio::Sample>(vad.frame_length(), 0.0));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_FALSE(std::isnan(frames[0].energy_db));
  EXPECT_DOUBLE_EQ(frames[0].energy_db, -120.0);
}

TEST(Vad, ResetForgetsEverything) {
  Vad vad;
  (void)vad.push(tone(vad.frame_length() * 5 + 7, -20.0));
  vad.reset();
  EXPECT_EQ(vad.frames_emitted(), 0u);
  EXPECT_DOUBLE_EQ(vad.noise_floor_db(), vad.config().noise_floor_init_db);
  const auto frames = vad.push(tone(vad.frame_length(), -20.0));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].index, 0u);
}

TEST(Vad, FlatnessEqualsTheFullSpectrumReference) {
  // The VAD transforms only the spectrum bins up to the flatness band's
  // end; every measured frame's flatness must equal, bit for bit, the
  // flatness of the whole magnitude spectrum — at 16, 44.1 and 48 kHz,
  // and with the band's top above Nyquist (the whole spectrum).
  VadConfig above_nyquist;
  above_nyquist.flatness_high_hz = 30000.0;
  for (const double rate : {16000.0, 44100.0, 48000.0}) {
    for (const VadConfig& config : {VadConfig{}, above_nyquist}) {
      SCOPED_TRACE(testing::Message() << rate << " Hz, top " << config.flatness_high_hz);
      Vad vad(config, rate);
      const std::size_t n = vad.frame_length();
      // Quiet noise, a tone, louder noise, a tone over noise.
      std::vector<audio::Sample> signal = white_noise(4 * n, 0.001, 11);
      const auto speech = tone(4 * n, -20.0, rate);
      signal.insert(signal.end(), speech.begin(), speech.end());
      const auto loud = white_noise(4 * n, 0.1, 12);
      signal.insert(signal.end(), loud.begin(), loud.end());
      for (std::size_t i = 0; i < 4 * n; ++i) signal.push_back(speech[i] + loud[i] / 10.0);

      const auto frames = vad.push(signal);
      ASSERT_EQ(frames.size(), 16u);
      std::size_t measured = 0;
      std::vector<double> magnitude;
      dsp::FftScratch scratch;
      for (const VadFrame& frame : frames) {
        if (!frame.has_flatness()) continue;
        ++measured;
        const auto samples = std::span<const audio::Sample>(signal).subspan(frame.index * n, n);
        dsp::magnitude_spectrum_into(samples, dsp::next_pow2(n), magnitude, scratch);
        const double reference =
            dsp::spectral_flatness(magnitude, dsp::next_pow2(n), rate, config.flatness_low_hz,
                                   config.flatness_high_hz);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(frame.flatness),
                  std::bit_cast<std::uint64_t>(reference))
            << "frame " << frame.index << ": " << frame.flatness << " vs " << reference;
      }
      EXPECT_GE(measured, 12u);
    }
  }
}
