#include "room/scene.h"

#include <cmath>
#include <random>

#include "audio/gain.h"
#include "dsp/biquad.h"
#include "dsp/fft.h"
#include "dsp/fractional_delay.h"

namespace headtalk::room {

Scene::Scene(Room room, DeviceSpec device, ArrayPose pose, std::uint32_t scatter_seed,
             std::uint32_t session_seed)
    : room_(std::move(room)), device_(std::move(device)), pose_(pose) {
  auto draw = [this](std::mt19937& rng) {
    std::uniform_real_distribution<double> ux(0.3, room_.dims.x - 0.3);
    std::uniform_real_distribution<double> uy(0.3, room_.dims.y - 0.3);
    std::uniform_real_distribution<double> uz(0.2, std::min(1.8, room_.dims.z - 0.2));
    std::uniform_real_distribution<double> urefl(0.08, 0.30);
    std::uniform_real_distribution<double> utilt(0.6, 1.4);
    Scatterer sc;
    sc.position = {ux(rng), uy(rng), uz(rng)};
    // Base reflectivity with a random spectral tilt: soft objects absorb
    // high frequencies, hard ones do not.
    const double base = urefl(rng);
    const double tilt = utilt(rng);
    for (std::size_t b = 0; b < kBandCount; ++b) {
      const double x = static_cast<double>(b) / (kBandCount - 1);
      sc.reflectivity[b] = base * std::pow(tilt, 1.0 - 2.0 * x);
    }
    return sc;
  };

  std::mt19937 rng(scatter_seed);
  scatterers_.reserve(room_.scatterer_count);
  for (std::size_t i = 0; i < room_.scatterer_count; ++i) scatterers_.push_back(draw(rng));

  if (room_.dynamic_clutter && session_seed != 0 && !scatterers_.empty()) {
    // Re-draw the movable half with the session-specific state.
    std::mt19937 session_rng(session_seed);
    const std::size_t movable = std::max<std::size_t>(1, scatterers_.size() / 2);
    for (std::size_t i = scatterers_.size() - movable; i < scatterers_.size(); ++i) {
      scatterers_[i] = draw(session_rng);
    }
  }
}

std::vector<Vec3> Scene::mic_world_positions() const {
  std::vector<Vec3> out;
  out.reserve(device_.mic_positions.size());
  const double c = std::cos(pose_.yaw_rad), s = std::sin(pose_.yaw_rad);
  for (const auto& m : device_.mic_positions) {
    out.push_back({pose_.center.x + c * m.x - s * m.y,
                   pose_.center.y + s * m.x + c * m.y, pose_.center.z + m.z});
  }
  return out;
}

audio::MultiBuffer Scene::render(const audio::Buffer& dry, const SourcePose& source,
                                 const speech::Directivity& directivity,
                                 const RenderOptions& options) const {
  const double fs = dry.sample_rate();
  const auto rir_len = static_cast<std::size_t>(options.rir_length_s * fs);
  const std::size_t out_len = dry.size() + rir_len;
  const std::size_t fft_size = dsp::next_pow2(out_len);
  const auto centers = band_centers();
  const Vec3 facing = azimuth_direction(source.facing_azimuth_rad);

  // The capture per band is BP_b(dry) * rir_b (convolution); filters commute
  // with convolution, so this equals dry * BP_b(rir_b). Applying the band
  // filters to the short RIRs and summing gives ONE full-band RIR per mic —
  // a single FFT convolution instead of one per band.
  dsp::FftScratch fft_scratch;  // one workspace for every transform below
  dsp::HalfSpectrum dry_spectrum, spec;
  dsp::rfft_half_into(dry.samples(), fft_size, dry_spectrum, fft_scratch);
  std::vector<dsp::BiquadCascade> band_filters;
  band_filters.reserve(kBandCount);
  for (std::size_t b = 0; b < kBandCount; ++b) {
    band_filters.push_back(
        dsp::butterworth_bandpass(2, kBandEdges[b], kBandEdges[b + 1], fs));
  }

  auto mics = mic_world_positions();
  if (!options.channels.empty()) {
    std::vector<Vec3> picked;
    picked.reserve(options.channels.size());
    for (std::size_t idx : options.channels) picked.push_back(mics.at(idx));
    mics = std::move(picked);
  }
  audio::MultiBuffer capture(mics.size(), out_len, fs);

  // Occlusion attenuation per band (direct path only).
  std::array<double, kBandCount> occ_gain;
  occ_gain.fill(1.0);
  if (options.occlusion) {
    for (std::size_t b = 0; b < kBandCount; ++b) {
      const double x = static_cast<double>(b) / (kBandCount - 1);
      const double att_db = options.occlusion->low_band_db +
                            (options.occlusion->high_band_db - options.occlusion->low_band_db) * x;
      occ_gain[b] = std::pow(10.0, -att_db / 20.0);
    }
  }

  std::vector<std::vector<audio::Sample>> band_rir(
      kBandCount, std::vector<audio::Sample>(rir_len, 0.0));

  for (std::size_t m = 0; m < mics.size(); ++m) {
    for (auto& r : band_rir) std::fill(r.begin(), r.end(), 0.0);

    // Specular paths from the image-source model.
    const auto paths = compute_image_sources(room_, source.position, facing, mics[m],
                                             directivity, options.ism);
    for (const auto& path : paths) {
      const double delay = path.distance_m / options.ism.speed_of_sound * fs;
      if (delay >= static_cast<double>(rir_len)) continue;
      const bool direct = path.reflection_order == 0;
      for (std::size_t b = 0; b < kBandCount; ++b) {
        const double g = path.band_gain[b] * (direct ? occ_gain[b] : 1.0);
        if (std::abs(g) < 1e-7) continue;
        dsp::add_fractional_impulse(band_rir[b], delay, g);
      }
    }

    // First-order scattering off furniture.
    for (const auto& sc : scatterers_) {
      const double d1 = std::max(0.2, source.position.distance(sc.position));
      const double d2 = std::max(0.2, sc.position.distance(mics[m]));
      const double delay = (d1 + d2) / options.ism.speed_of_sound * fs;
      if (delay >= static_cast<double>(rir_len)) continue;
      const double emission_angle = angle_between(facing, sc.position - source.position);
      for (std::size_t b = 0; b < kBandCount; ++b) {
        const double g = directivity.gain(centers[b], emission_angle) *
                         sc.reflectivity[b] / (d1 * d2);
        if (std::abs(g) < 1e-7) continue;
        dsp::add_fractional_impulse(band_rir[b], delay, g);
      }
    }

    // Collapse bands into one full-band RIR, then convolve once.
    std::vector<audio::Sample> rir(rir_len, 0.0);
    for (std::size_t b = 0; b < kBandCount; ++b) {
      band_filters[b].reset();
      band_filters[b].process(std::span<audio::Sample>(band_rir[b]));
      for (std::size_t i = 0; i < rir_len; ++i) rir[i] += band_rir[b][i];
    }
    dsp::rfft_half_into(rir, fft_size, spec, fft_scratch);
    spec.multiply(dry_spectrum);
    std::vector<audio::Sample> samples;
    dsp::irfft_half_into(spec, out_len, samples, fft_scratch);
    capture.channel(m) = audio::Buffer(std::move(samples), fs);
  }

  // --- Noise ---
  if (options.add_ambient) {
    const double spl =
        options.ambient_spl_db >= 0.0 ? options.ambient_spl_db : room_.ambient_noise_spl_db;
    add_diffuse_noise(capture, options.ambient_type, spl, options.noise_seed);
  }
  if (options.add_self_noise) {
    add_diffuse_noise(capture, NoiseType::kWhite, device_.self_noise_spl_db,
                      options.noise_seed + 104729);
  }
  return capture;
}

}  // namespace headtalk::room
