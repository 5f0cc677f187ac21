#pragma once

/// \file corpus.h
/// Seeded input generation for the workloads and the checks every
/// workload shares: the coded broadcast backlog, the synthetic query
/// corpus, the query-language stream, the 16-modality sweep and the
/// bit-identity comparison of hit lists.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/video_description.h"
#include "engine/digital_library.h"
#include "engine/serving/partition.h"
#include "media/block_codec.h"
#include "media/tennis_synthesizer.h"
#include "vision/signature.h"
#include "webspace/site_synthesizer.h"

namespace perfbench {

/// The tournament site every workload's library is built over. `videos`
/// is the number of Video objects it must hold.
cobra::webspace::SynthesizedSite MakeSite(uint64_t seed, int players,
                                          int videos);

/// Indexable interview words of `site`, sorted and distinct: the text
/// vocabulary query strings draw from.
std::vector<std::string> InterviewWords(
    const cobra::webspace::SynthesizedSite& site);

// ---------------------------------------------------------------------------
// Backlog (index_backlog): coded broadcasts, generated outside the timed
// region and cached by the runner.

/// The generator configuration of backlog video `index` under `seed`.
cobra::media::TennisSynthConfig BacklogBroadcast(uint64_t seed, size_t index);
cobra::media::CodecConfig BacklogCodec();

/// One generated input: the Video oid it is indexed under and its
/// serialized bitstream (EncodedVideo::Serialize).
struct CodedInput {
  int64_t oid = 0;
  std::vector<uint8_t> bytes;
  int64_t frames = 0;
};

/// Writes / reads the backlog file (magic, count, then oid + bytes per
/// video). Reading checks only the framing; every bitstream is still
/// validated by EncodedVideo::Deserialize when it is analyzed.
bool WriteBacklog(const std::string& path,
                  const std::vector<CodedInput>& inputs);
bool ReadBacklog(const std::string& path, std::vector<CodedInput>* inputs);

// ---------------------------------------------------------------------------
// Pre-analyzed corpus (query_mix, query_unique, live_grow): descriptions
// with dense event layers and signature records with planted
// near-duplicate clusters.

/// Event names of the synthetic descriptions (the tennis FDE's events).
const std::vector<std::string>& EventNames();

cobra::core::VideoDescription MakeDescription(int64_t oid, uint64_t seed,
                                              int events);

/// `shots` signature records of video `oid`; each is a noisy member of
/// one of `clusters` seeded cluster centres, so similar_to probes find
/// neighbours across videos.
std::vector<cobra::vision::SignatureRecord> MakeSignatures(
    int64_t oid, uint64_t seed, int shots, int clusters);

/// The store and interviews of `site` plus its first `videos` videos as
/// MakeDescription / MakeSignatures records.
cobra::engine::serving::CorpusParts MakeCorpus(
    uint64_t seed, const cobra::webspace::SynthesizedSite& site,
    size_t videos, int events, int shots, int clusters);

// ---------------------------------------------------------------------------
// Query streams.

/// What query strings may refer to in one library.
struct StreamVocabulary {
  std::vector<std::string> words;
  std::vector<std::pair<int64_t, int64_t>> probes;  ///< similar_to video:frame
  int64_t first_year = 0;
  int64_t last_year = 0;
};

/// The probes of a library: the middle frame of every signature record.
std::vector<std::pair<int64_t, int64_t>> LibraryProbes(
    const cobra::engine::DigitalLibrary& library);

/// The stream shape of bench_e13_serving: a popular share of the stream is
/// drawn from a small pool of queries without an event condition (they
/// repeat, as dashboards do); the rest are content queries with an event
/// condition, each of which occurs once in the stream.
constexpr double kPopularShare = 0.2;
constexpr size_t kPopularPool = 32;

/// `count` query-language strings: a `repeat_share` of them drawn from a
/// popular pool of `pool` concept-only, text-only, similar_to-only or
/// concept + text queries; the rest are fresh event queries, each with a
/// text (two or three words) or similar_to (probe and k) condition and
/// none occurring twice. repeat_share 0 gives a stream of distinct strings.
std::vector<std::string> MakeQueryStream(const StreamVocabulary& vocabulary,
                                         uint64_t seed, size_t count,
                                         double repeat_share, size_t pool);

/// How the first `count` strings a run served (the stream consumed in
/// order, wrapping around) repeat: `repeats` are strings seen earlier.
struct StreamShape {
  size_t queries = 0;
  size_t distinct = 0;
  size_t repeats = 0;
};
StreamShape MeasureStream(const std::vector<std::string>& stream,
                          size_t count);

/// The 16-modality sweep (concept predicate × champion × text × event,
/// three variants each) plus similar_to probes of `probes`.
std::vector<cobra::engine::CombinedQuery> SweepQueries(
    const std::vector<std::pair<int64_t, int64_t>>& probes);

bool SameHits(const std::vector<cobra::engine::SceneHit>& a,
              const std::vector<cobra::engine::SceneHit>& b);

/// Compares `actual` with `expected` truncated to `top_n` (0 = all); both
/// failing with the same status code also counts as equal.
bool SameAnswer(const cobra::Result<std::vector<cobra::engine::SceneHit>>& expected,
                const cobra::Result<std::vector<cobra::engine::SceneHit>>& actual,
                size_t top_n);

}  // namespace perfbench
