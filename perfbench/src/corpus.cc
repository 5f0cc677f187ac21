#include "corpus.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <set>
#include <unordered_set>

#include "text/tokenizer.h"
#include "util/rng.h"

namespace perfbench {

using namespace cobra;  // NOLINT

webspace::SynthesizedSite MakeSite(uint64_t seed, int players, int videos) {
  webspace::SiteConfig config;
  config.num_players = players;
  config.num_past_years = 8;
  config.videos_per_year = (videos + config.num_past_years - 1) /
                           config.num_past_years;
  config.seed = seed;
  config.ensure_answer = true;
  return webspace::SiteSynthesizer::Generate(config).TakeValue();
}

std::vector<std::string> InterviewWords(
    const webspace::SynthesizedSite& site) {
  std::set<std::string> words;
  for (const auto& [oid, body] : site.interview_texts) {
    for (const std::string& token : text::Tokenize(body)) {
      // Stop words have no postings: a query of only those is invalid.
      if (!text::Analyze(token).empty()) words.insert(token);
    }
  }
  return {words.begin(), words.end()};
}

// ---------------------------------------------------------------------------
// Backlog.

media::TennisSynthConfig BacklogBroadcast(uint64_t seed, size_t index) {
  media::TennisSynthConfig config;
  config.width = 128;
  config.height = 96;
  config.num_points = 3;
  config.min_court_frames = 70;
  config.max_court_frames = 110;
  config.min_cutaway_frames = 14;
  config.max_cutaway_frames = 26;
  config.noise_sigma = 4.0;
  config.net_approach_prob = 0.7;
  config.seed = seed * 1000003u + index * 7919u + 17u;
  return config;
}

media::CodecConfig BacklogCodec() {
  media::CodecConfig config;
  config.gop_size = 12;
  config.quality = 75;
  config.motion_search_range = 3;
  return config;
}

namespace {
constexpr char kBacklogMagic[8] = {'C', 'B', 'K', 'L', 'O', 'G', '0', '1'};
}  // namespace

bool WriteBacklog(const std::string& path,
                  const std::vector<CodedInput>& inputs) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  bool ok = std::fwrite(kBacklogMagic, 1, 8, file) == 8;
  const uint64_t count = inputs.size();
  ok = ok && std::fwrite(&count, 8, 1, file) == 1;
  for (const CodedInput& input : inputs) {
    const uint64_t size = input.bytes.size();
    ok = ok && std::fwrite(&input.oid, 8, 1, file) == 1 &&
         std::fwrite(&input.frames, 8, 1, file) == 1 &&
         std::fwrite(&size, 8, 1, file) == 1 &&
         std::fwrite(input.bytes.data(), 1, size, file) == size;
  }
  return std::fclose(file) == 0 && ok;
}

bool ReadBacklog(const std::string& path, std::vector<CodedInput>* inputs) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  char magic[8];
  uint64_t count = 0;
  bool ok = std::fread(magic, 1, 8, file) == 8 &&
            std::memcmp(magic, kBacklogMagic, 8) == 0 &&
            std::fread(&count, 8, 1, file) == 1 && count < (1u << 20);
  for (uint64_t i = 0; ok && i < count; ++i) {
    CodedInput input;
    uint64_t size = 0;
    ok = std::fread(&input.oid, 8, 1, file) == 1 &&
         std::fread(&input.frames, 8, 1, file) == 1 &&
         std::fread(&size, 8, 1, file) == 1 && size < (uint64_t{1} << 32);
    if (!ok) break;
    input.bytes.resize(size);
    ok = std::fread(input.bytes.data(), 1, size, file) == size;
    inputs->push_back(std::move(input));
  }
  std::fclose(file);
  return ok;
}

// ---------------------------------------------------------------------------
// Pre-analyzed corpus.

const std::vector<std::string>& EventNames() {
  static const std::vector<std::string> names = {"serve", "rally", "net_play",
                                                 "baseline_play"};
  return names;
}

core::VideoDescription MakeDescription(int64_t oid, uint64_t seed,
                                       int events) {
  Rng rng(seed ^ (static_cast<uint64_t>(oid) * 0x9E3779B97F4A7C15ull));
  core::VideoDescription desc(oid, "synthetic", 25.0, 40000);
  for (int e = 0; e < events; ++e) {
    const int64_t begin = rng.NextInt(0, 39000);
    desc.Add(core::CobraLayer::kEvent,
             grammar::Annotation(EventNames()[rng.NextBounded(4)],
                                 {begin, begin + rng.NextInt(10, 900)})
                 .Set("player", rng.NextInt(-1, 1)));
  }
  return desc;
}

std::vector<vision::SignatureRecord> MakeSignatures(int64_t oid,
                                                    uint64_t seed, int shots,
                                                    int clusters) {
  Rng rng(seed * 31 + static_cast<uint64_t>(oid) * 131 + 9);
  std::vector<vision::SignatureRecord> records(static_cast<size_t>(shots));
  const int64_t shot_len = 40000 / shots;
  for (int k = 0; k < shots; ++k) {
    vision::SignatureRecord& rec = records[static_cast<size_t>(k)];
    // The cluster centre is a pure function of (seed, cluster id).
    Rng centre(seed * 7 + rng.NextBounded(static_cast<uint64_t>(clusters)));
    for (uint64_t& word : rec.sig.hash) word = centre.NextU64();
    for (uint8_t& byte : rec.sig.sketch) {
      byte = static_cast<uint8_t>(centre.NextBounded(256));
    }
    const int flips = static_cast<int>(rng.NextInt(1, 12));
    for (int f = 0; f < flips; ++f) {
      const uint64_t bit = rng.NextBounded(256);
      rec.sig.hash[bit / 64] ^= uint64_t{1} << (bit % 64);
    }
    for (uint8_t& byte : rec.sig.sketch) {
      byte = static_cast<uint8_t>(
          std::clamp<int64_t>(byte + rng.NextInt(-3, 3), 0, 255));
    }
    rec.video_id = oid;
    rec.begin = k * shot_len;
    rec.end = rec.begin + shot_len - 1;
  }
  return records;
}

engine::serving::CorpusParts MakeCorpus(
    uint64_t seed, const webspace::SynthesizedSite& site, size_t videos,
    int events, int shots, int clusters) {
  engine::serving::CorpusParts parts;
  parts.store = site.store;
  for (const auto& [oid, body] : site.interview_texts) {
    parts.interviews.emplace_back(oid, body);
  }
  for (size_t v = 0; v < videos && v < site.video_oids.size(); ++v) {
    const int64_t oid = site.video_oids[v];
    parts.videos.push_back(MakeDescription(oid, seed, events));
    parts.signatures.emplace_back(oid,
                                  MakeSignatures(oid, seed, shots, clusters));
  }
  return parts;
}

// ---------------------------------------------------------------------------
// Query streams.

std::vector<std::pair<int64_t, int64_t>> LibraryProbes(
    const engine::DigitalLibrary& library) {
  std::vector<std::pair<int64_t, int64_t>> probes;
  const auto& index = library.signatures();
  for (size_t i = 0; i < index.num_records(); ++i) {
    const vision::SignatureRecord& rec = index.record(i);
    probes.emplace_back(rec.video_id, (rec.begin + rec.end) / 2);
  }
  return probes;
}

namespace {

std::string Pick(Rng& rng, const std::vector<std::string>& items) {
  return items[rng.NextBounded(items.size())];
}

// Concept conditions: few distinct values on a 48-player site, so they
// only ever appear beside a text or similar_to condition or in the
// popular pool.
std::string ConceptCondition(Rng& rng, const StreamVocabulary& vocabulary) {
  switch (rng.NextBounded(4)) {
    case 0:
      return "player.ranking <= " + std::to_string(rng.NextInt(1, 48));
    case 1:
      return "won.year = " +
             std::to_string(rng.NextInt(vocabulary.first_year,
                                        vocabulary.last_year));
    case 2:
      return std::string("player.hand = ") +
             (rng.NextBounded(2) == 0 ? "left" : "right");
    default:
      return std::string("player.gender = ") +
             (rng.NextBounded(2) == 0 ? "female" : "male") +
             " AND won = any";
  }
}

std::string TextCondition(Rng& rng, const StreamVocabulary& vocabulary,
                          uint64_t min_words) {
  std::string words = Pick(rng, vocabulary.words);
  const uint64_t extra = min_words - 1 + rng.NextBounded(4 - min_words);
  for (uint64_t i = 0; i < extra; ++i) {
    words += " " + Pick(rng, vocabulary.words);
  }
  return "text ~ \"" + words + "\"";
}

std::string SimilarCondition(Rng& rng, const StreamVocabulary& vocabulary) {
  const auto& probe = vocabulary.probes[rng.NextBounded(vocabulary.probes.size())];
  return "similar_to = " + std::to_string(probe.first) + ":" +
         std::to_string(probe.second) +
         " AND similar_to.k = " + std::to_string(rng.NextInt(4, 24));
}

// The high-cardinality condition every fresh query carries: two or three
// interview words, or a probe shot with its k (a library without
// signatures falls back to text).
std::string KeyCondition(Rng& rng, const StreamVocabulary& vocabulary,
                         bool similar) {
  return similar && !vocabulary.probes.empty()
             ? SimilarCondition(rng, vocabulary)
             : TextCondition(rng, vocabulary, 2);
}

// A content query of bench_e13_serving's stream shape: an event condition
// with one of four variants (concept, concept + text, text, similar_to).
std::string FreshQuery(Rng& rng, const StreamVocabulary& vocabulary) {
  const std::string event = "event = " + Pick(rng, EventNames());
  switch (rng.NextBounded(4)) {
    case 0:
      return event + " AND " + ConceptCondition(rng, vocabulary) + " AND " +
             KeyCondition(rng, vocabulary, rng.NextBounded(2) == 0);
    case 1:
      return event + " AND " + TextCondition(rng, vocabulary, 2);
    case 2:
      return event + " AND " + KeyCondition(rng, vocabulary, true);
    default:
      return KeyCondition(rng, vocabulary, true) + " AND " + event + " AND " +
             ConceptCondition(rng, vocabulary);
  }
}

// A popular query without an event condition, as bench_e13_serving's
// repeating pool: concept-only, text-only, similar_to-only or concept +
// text.
std::string PopularQuery(Rng& rng, const StreamVocabulary& vocabulary) {
  switch (rng.NextBounded(4)) {
    case 0:
      return ConceptCondition(rng, vocabulary);
    case 1:
      return TextCondition(rng, vocabulary, 1);
    case 2:
      return KeyCondition(rng, vocabulary, true);
    default:
      return ConceptCondition(rng, vocabulary) + " AND " +
             TextCondition(rng, vocabulary, 1);
  }
}

}  // namespace

std::vector<std::string> MakeQueryStream(const StreamVocabulary& vocabulary,
                                         uint64_t seed, size_t count,
                                         double repeat_share, size_t pool) {
  Rng rng(seed * 2654435761u + 3);
  std::unordered_set<std::string> seen;
  std::vector<std::string> popular;
  while (popular.size() < pool) {
    std::string query = PopularQuery(rng, vocabulary);
    if (seen.insert(query).second) popular.push_back(std::move(query));
  }
  std::vector<std::string> stream;
  stream.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    if (!popular.empty() && rng.NextDouble() < repeat_share) {
      stream.push_back(popular[rng.NextBounded(popular.size())]);
      continue;
    }
    // Fresh queries occur once: a string seen before is drawn again (the
    // space is far larger than any stream, so this ends at once).
    std::string query = FreshQuery(rng, vocabulary);
    for (int retry = 0; retry < 64 && !seen.insert(query).second; ++retry) {
      query = FreshQuery(rng, vocabulary);
    }
    stream.push_back(std::move(query));
  }
  return stream;
}

StreamShape MeasureStream(const std::vector<std::string>& stream,
                          size_t count) {
  std::unordered_set<std::string> seen;
  StreamShape shape;
  for (size_t i = 0; i < count; ++i) {
    if (!seen.insert(stream[i % stream.size()]).second) ++shape.repeats;
  }
  shape.queries = count;
  shape.distinct = seen.size();
  return shape;
}

std::vector<engine::CombinedQuery> SweepQueries(
    const std::vector<std::pair<int64_t, int64_t>>& probes) {
  using storage::CompareOp;
  std::vector<engine::CombinedQuery> queries;
  Rng rng(21);
  for (int combo = 0; combo < 16; ++combo) {
    for (int variant = 0; variant < 3; ++variant) {
      engine::CombinedQuery query;
      if (combo & 1) {
        switch (rng.NextBounded(3)) {
          case 0:
            query.player_predicates.push_back(
                {"gender", CompareOp::kEq, std::string("female")});
            break;
          case 1:
            query.player_predicates.push_back(
                {"hand", CompareOp::kEq, std::string("left")});
            break;
          default:
            query.player_predicates.push_back(
                {"ranking", CompareOp::kLe, rng.NextInt(1, 40)});
            break;
        }
      }
      if (combo & 2) {
        query.require_champion = true;
        if (rng.NextBounded(2) == 0) query.won_year = rng.NextInt(1996, 2003);
      }
      if (combo & 4) {
        const char* texts[] = {"champion title", "net volley",
                               "australian open"};
        query.text = texts[rng.NextBounded(3)];
        query.text_top_k = 1 + rng.NextBounded(12);
      }
      if (combo & 8) {
        query.event = EventNames()[rng.NextBounded(EventNames().size())];
      }
      queries.push_back(std::move(query));
    }
  }
  for (size_t i = 0; i < probes.size() && i < 64; i += 1 + probes.size() / 16) {
    engine::CombinedQuery query;
    query.similar_video = probes[i].first;
    query.similar_frame = probes[i].second;
    query.similar_k = 8;
    if (i % 2 == 1) query.event = EventNames()[i % EventNames().size()];
    queries.push_back(std::move(query));
  }
  return queries;
}

bool SameHits(const std::vector<engine::SceneHit>& a,
              const std::vector<engine::SceneHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].player_oid != b[i].player_oid ||
        a[i].player_name != b[i].player_name ||
        a[i].video_oid != b[i].video_oid ||
        a[i].range.begin != b[i].range.begin ||
        a[i].range.end != b[i].range.end || a[i].event != b[i].event ||
        std::memcmp(&a[i].text_score, &b[i].text_score, 8) != 0 ||
        std::memcmp(&a[i].similarity, &b[i].similarity, 8) != 0) {
      return false;
    }
  }
  return true;
}

bool SameAnswer(const Result<std::vector<engine::SceneHit>>& expected,
                const Result<std::vector<engine::SceneHit>>& actual,
                size_t top_n) {
  if (expected.ok() != actual.ok()) return false;
  if (!expected.ok()) {
    return expected.status().code() == actual.status().code();
  }
  std::vector<engine::SceneHit> want = *expected;
  if (top_n > 0 && want.size() > top_n) want.resize(top_n);
  return SameHits(want, *actual);
}

}  // namespace perfbench
