// StreamingDetector: the absolute-indexed ring and its sizing, chunked VAD
// + endpointing over a continuous multichannel stream, per-segment scoring
// through the resident pipeline (with the open-session flag carried across
// segments), chunk-size invariance on a rendered scene, flush, input
// validation, and force-close.
#include "stream/streaming_detector.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>

#include <gtest/gtest.h>

#include "serve_test_util.h"
#include "sim/collector.h"
#include "sim/stream_scene.h"

using namespace headtalk;
using namespace headtalk::stream;

namespace {

const core::HeadTalkPipeline& test_pipeline() {
  static const core::HeadTalkPipeline pipeline = serve_test::make_test_pipeline();
  return pipeline;
}

/// Machinery-focused config: tight segmentation, cheap kNormal scoring.
StreamingDetectorConfig test_config() {
  StreamingDetectorConfig config;
  config.mode = core::VaMode::kNormal;
  config.endpoint.pre_roll_frames = 2;
  config.endpoint.onset_frames = 2;
  config.endpoint.hangover_frames = 3;
  config.endpoint.post_roll_frames = 2;
  config.endpoint.min_utterance_frames = 4;
  config.endpoint.max_utterance_frames = 200;
  return config;
}

/// Appends `frames` sample frames of a harmonic burst (tonal → VAD-active)
/// to an interleaved stream, identical on every channel.
void append_tone(std::vector<float>& stream, std::size_t frames, std::size_t channels,
                 double sample_rate = audio::kDefaultSampleRate) {
  for (std::size_t f = 0; f < frames; ++f) {
    const double t = static_cast<double>(f) / sample_rate;
    double v = 0.0;
    for (int h = 1; h <= 4; ++h) {
      v += 0.05 * std::sin(2.0 * std::numbers::pi * 220.0 * h * t);
    }
    for (std::size_t c = 0; c < channels; ++c) stream.push_back(static_cast<float>(v));
  }
}

void append_silence(std::vector<float>& stream, std::size_t frames,
                    std::size_t channels) {
  stream.insert(stream.end(), frames * channels, 0.0f);
}

/// Feeds an interleaved stream in fixed-size chunks, collecting every event.
std::vector<DecisionEvent> stream_in_chunks(StreamingDetector& detector,
                                            const std::vector<float>& stream,
                                            std::size_t chunk_frames) {
  std::vector<DecisionEvent> events;
  const std::size_t channels = detector.channels();
  for (std::size_t offset = 0; offset < stream.size();) {
    const std::size_t take =
        std::min(chunk_frames * channels, stream.size() - offset);
    const auto batch = detector.push_interleaved(
        std::span<const float>(stream).subspan(offset, take));
    events.insert(events.end(), batch.begin(), batch.end());
    offset += take;
  }
  return events;
}

/// Deinterleaves [begin, end) of the stream into a capture — the truth the
/// detector's ring extraction must match.
audio::MultiBuffer slice(const std::vector<float>& stream, std::size_t channels,
                         std::uint64_t begin, std::uint64_t end) {
  audio::MultiBuffer capture(channels, static_cast<std::size_t>(end - begin),
                             audio::kDefaultSampleRate);
  for (std::uint64_t f = begin; f < end; ++f) {
    for (std::size_t c = 0; c < channels; ++c) {
      capture.channel(c)[static_cast<std::size_t>(f - begin)] =
          stream[static_cast<std::size_t>(f) * channels + c];
    }
  }
  return capture;
}

}  // namespace

TEST(StreamRing, AbsoluteIndexingSurvivesWrapAround) {
  StreamRing ring;
  ring.reset(1, 4, 48000.0);
  ring.push(std::vector<float>{1, 2, 3, 4, 5, 6});  // frames 0..5, capacity 4
  EXPECT_EQ(ring.total_frames(), 6u);
  EXPECT_EQ(ring.oldest_frame(), 2u);

  // Every retained frame comes back by its absolute index.
  audio::MultiBuffer capture;
  ring.extract_into(2, 6, capture);
  ASSERT_EQ(capture.frames(), 4u);
  EXPECT_DOUBLE_EQ(capture.channel(0)[0], 3.0);
  EXPECT_DOUBLE_EQ(capture.channel(0)[3], 6.0);

  // An interior span reuses the capture.
  ring.extract_into(4, 6, capture);
  ASSERT_EQ(capture.frames(), 2u);
  EXPECT_DOUBLE_EQ(capture.channel(0)[0], 5.0);
  EXPECT_DOUBLE_EQ(capture.channel(0)[1], 6.0);

  // Overwritten or not-yet-pushed frames are a sizing bug, not a clamp.
  EXPECT_THROW(ring.extract_into(1, 6, capture), std::logic_error);
  EXPECT_THROW(ring.extract_into(5, 7, capture), std::logic_error);
}

TEST(StreamingDetector, RingCapacityFollowsTheEndpointerNotTheUtteranceLength) {
  // The ring holds only audio the operator has not consumed: the larger of
  // pre-roll + onset and hangover - post-roll VAD frames, plus the frame
  // the VAD is still filling. The utterance length never enters.
  auto config = test_config();  // pre 2 + onset 2 vs hangover 3 - post 2
  StreamingDetector detector(test_pipeline(), 4, audio::kDefaultSampleRate, config);
  const std::size_t frame_len = detector.vad().frame_length();
  EXPECT_EQ(detector.ring_capacity(), 5 * frame_len);

  config.endpoint.max_utterance_frames = 4000;
  config.endpoint.hangover_frames = 40;  // 40 - 2 post-roll frames dominate
  StreamingDetector wide(test_pipeline(), 4, audio::kDefaultSampleRate, config);
  EXPECT_EQ(wide.ring_capacity(), 39 * frame_len);
}

TEST(StreamingDetector, RejectsInvalidInput) {
  EXPECT_THROW(StreamingDetector(test_pipeline(), 0, 48000.0, test_config()),
               std::invalid_argument);

  StreamingDetector detector(test_pipeline(), 4, 48000.0, test_config());
  // 10 samples is not a multiple of 4 channels.
  EXPECT_THROW(detector.push_interleaved(std::vector<float>(10, 0.0f)),
               std::invalid_argument);
  // Deinterleaved chunks must match the stream's geometry.
  EXPECT_THROW(detector.push(audio::MultiBuffer(2, 64, 48000.0)),
               std::invalid_argument);
  EXPECT_THROW(detector.push(audio::MultiBuffer(4, 64, 16000.0)),
               std::invalid_argument);
}

TEST(StreamingDetector, EmitsOneDecisionPerBurstMatchingOfflineScoring) {
  const auto config = test_config();
  StreamingDetector detector(test_pipeline(), 4, audio::kDefaultSampleRate, config);
  const std::size_t frame_len = detector.vad().frame_length();

  // Three tonal bursts separated by silence wide enough to split them.
  std::vector<float> stream;
  append_silence(stream, 5 * frame_len, 4);
  for (int burst = 0; burst < 3; ++burst) {
    append_tone(stream, 12 * frame_len, 4);
    append_silence(stream, 10 * frame_len, 4);
  }

  // Chunk size deliberately not a multiple of the VAD frame length.
  auto events = stream_in_chunks(detector, stream, frame_len + 37);
  const auto tail = detector.flush();
  events.insert(events.end(), tail.begin(), tail.end());

  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(detector.segments(), 3u);
  EXPECT_EQ(detector.force_closed(), 0u);

  bool session_open = false;
  std::uint64_t previous_end = 0;
  for (const auto& event : events) {
    EXPECT_GE(event.begin_frame, previous_end);  // ordered, never overlapping
    EXPECT_GT(event.end_frame, event.begin_frame);
    EXPECT_DOUBLE_EQ(event.begin_seconds,
                     static_cast<double>(event.begin_frame) / audio::kDefaultSampleRate);
    EXPECT_FALSE(event.force_closed);
    EXPECT_GE(event.latency_seconds, 0.0);
    previous_end = event.end_frame;

    // The streamed decision must equal scoring the same span offline with
    // the same carried session flag.
    const auto capture = slice(stream, 4, event.begin_frame, event.end_frame);
    const auto offline = test_pipeline().score_capture(capture, config.mode,
                                                       /*followup=*/false, session_open);
    EXPECT_EQ(event.result.decision, offline.decision);
    EXPECT_DOUBLE_EQ(event.result.liveness_score, offline.liveness_score);
    session_open = offline.session_open_after;
  }
  EXPECT_EQ(detector.session_open(), session_open);
}

TEST(StreamingDetector, HeadTalkStreamedDecisionMatchesBatchScoring) {
  // Tentpole equivalence at the decision level: in HeadTalk mode the
  // detector accumulates each open segment frame by frame and only
  // finalizes at the close. The verdict and both scores must equal
  // score_capture() on the same sample span — chunk invariance makes the
  // features bit-identical, so exact equality is the bar, not a tolerance.
  const auto config = [] {
    auto c = test_config();
    c.mode = core::VaMode::kHeadTalk;
    return c;
  }();
  StreamingDetector detector(test_pipeline(), 4, audio::kDefaultSampleRate, config);
  const std::size_t frame_len = detector.vad().frame_length();

  std::vector<float> stream;
  append_silence(stream, 5 * frame_len, 4);
  for (int burst = 0; burst < 2; ++burst) {
    append_tone(stream, 12 * frame_len, 4);
    append_silence(stream, 10 * frame_len, 4);
  }

  auto events = stream_in_chunks(detector, stream, frame_len + 37);
  const auto tail = detector.flush();
  events.insert(events.end(), tail.begin(), tail.end());
  ASSERT_EQ(events.size(), 2u);

  bool session_open = false;
  for (const auto& event : events) {
    const auto capture = slice(stream, 4, event.begin_frame, event.end_frame);
    const auto offline = test_pipeline().score_capture(capture, config.mode,
                                                       /*followup=*/false, session_open);
    EXPECT_EQ(event.result.decision, offline.decision);
    EXPECT_DOUBLE_EQ(event.result.liveness_score, offline.liveness_score);
    EXPECT_DOUBLE_EQ(event.result.orientation_score, offline.orientation_score);
    EXPECT_EQ(event.result.session_open_after, offline.session_open_after);
    session_open = offline.session_open_after;
  }
  EXPECT_EQ(detector.session_open(), session_open);
}

TEST(StreamingDetector, FlushClosesATrailingUtterance) {
  StreamingDetector detector(test_pipeline(), 4, audio::kDefaultSampleRate,
                             test_config());
  const std::size_t frame_len = detector.vad().frame_length();

  std::vector<float> stream;
  append_tone(stream, 10 * frame_len, 4);  // ends mid-speech
  const auto during = stream_in_chunks(detector, stream, 2 * frame_len);
  EXPECT_TRUE(during.empty());
  EXPECT_TRUE(detector.in_utterance());

  const auto tail = detector.flush();
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].end_frame, detector.frames_streamed());
  EXPECT_FALSE(detector.in_utterance());
}

TEST(StreamingDetector, LongSpeechForceClosesAtMaxLength) {
  auto config = test_config();
  config.endpoint.max_utterance_frames = 6;
  config.endpoint.min_utterance_frames = 1;
  StreamingDetector detector(test_pipeline(), 4, audio::kDefaultSampleRate, config);
  const std::size_t frame_len = detector.vad().frame_length();

  std::vector<float> stream;
  append_tone(stream, 20 * frame_len, 4);
  const auto events = stream_in_chunks(detector, stream, 4 * frame_len);

  ASSERT_GE(events.size(), 2u);
  for (const auto& event : events) {
    EXPECT_TRUE(event.force_closed);
    EXPECT_LE(event.end_frame - event.begin_frame, 6u * frame_len);
  }
  EXPECT_EQ(detector.force_closed(), events.size());
}


namespace {

/// A rendered lab/D2 stream of 12 utterances (facing, not facing, phone
/// replay; four rounds), about 19 s — long enough that a ring sized for
/// less than the whole stream must recycle slots inside one push().
const sim::StreamScene& rendered_scene() {
  static const sim::StreamScene scene = [] {
    sim::CollectorConfig collector_config;
    collector_config.cache_enabled = false;
    const sim::Collector collector(collector_config);
    std::vector<sim::SampleSpec> specs;
    for (unsigned round = 0; round < 4; ++round) {
      sim::SampleSpec base;
      base.location = {sim::GridRadial::kMiddle, 3.0};
      base.repetition = round;
      sim::SampleSpec away = base;
      away.angle_deg = 120.0;
      sim::SampleSpec replay = base;
      replay.replay = sim::ReplaySource::kSmartphone;
      specs.insert(specs.end(), {base, away, replay});
    }
    return sim::render_stream_scene(collector, specs);
  }();
  return scene;
}

std::vector<DecisionEvent> push_scene(const StreamingDetectorConfig& config,
                                      std::size_t chunk_frames) {
  const auto& audio = rendered_scene().audio;
  StreamingDetector detector(test_pipeline(), audio.channel_count(),
                             audio.sample_rate(), config);
  std::vector<DecisionEvent> events;
  for (std::size_t begin = 0; begin < audio.frames(); begin += chunk_frames) {
    const std::size_t count = std::min(chunk_frames, audio.frames() - begin);
    audio::MultiBuffer chunk(audio.channel_count(), count, audio.sample_rate());
    for (std::size_t c = 0; c < audio.channel_count(); ++c) {
      std::copy_n(audio.channel(c).samples().data() + begin, count,
                  chunk.channel(c).samples().data());
    }
    const auto closed = detector.push(chunk);
    events.insert(events.end(), closed.begin(), closed.end());
  }
  const auto tail = detector.flush();
  events.insert(events.end(), tail.begin(), tail.end());
  return events;
}

}  // namespace

TEST(StreamingDetector, ChunkSizeCannotChangeAStreamedVerdict) {
  // The whole ~19 s scene in one push() must produce exactly the events of
  // a 960-frame-chunk run: same spans, verdicts, scores and feature
  // vectors, bit for bit. A ring too small for what the operator has not
  // consumed yet would throw (or, clamping, score different audio). The
  // wide endpointer grows that unfed tail.
  StreamingDetectorConfig defaults;
  defaults.capture_features = true;
  StreamingDetectorConfig wide = defaults;
  wide.endpoint.pre_roll_frames = 30;
  wide.endpoint.hangover_frames = 40;

  for (const auto& config : {defaults, wide}) {
    SCOPED_TRACE(config.endpoint.pre_roll_frames);
    const auto whole = push_scene(config, rendered_scene().audio.frames());
    const auto chunked = push_scene(config, 960);
    ASSERT_EQ(chunked.size(), rendered_scene().utterances.size());
    ASSERT_EQ(whole.size(), chunked.size());
    for (std::size_t i = 0; i < whole.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(whole[i].begin_frame, chunked[i].begin_frame);
      EXPECT_EQ(whole[i].end_frame, chunked[i].end_frame);
      EXPECT_EQ(whole[i].result.decision, chunked[i].result.decision);
      EXPECT_EQ(whole[i].result.liveness_score, chunked[i].result.liveness_score);
      EXPECT_EQ(whole[i].result.orientation_score,
                chunked[i].result.orientation_score);
      EXPECT_EQ(whole[i].features.liveness, chunked[i].features.liveness);
      EXPECT_EQ(whole[i].features.orientation, chunked[i].features.orientation);
    }
  }
}
