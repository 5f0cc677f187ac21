#include "engine/digital_library.h"

#include <algorithm>
#include <set>

#include "engine/planner/planner.h"
#include "util/strings.h"

namespace cobra::engine {

bool SceneHitLess(const SceneHit& a, const SceneHit& b) {
  if (a.text_score != b.text_score) return a.text_score > b.text_score;
  // Most-similar first; hits of non-similar queries all carry -1 and fall
  // through unchanged.
  if (a.similarity != b.similarity) return a.similarity < b.similarity;
  if (a.video_oid != b.video_oid) return a.video_oid < b.video_oid;
  if (a.range.begin != b.range.begin) return a.range.begin < b.range.begin;
  if (a.range.end != b.range.end) return a.range.end < b.range.end;
  if (a.player_oid != b.player_oid) return a.player_oid < b.player_oid;
  return a.event < b.event;
}

DigitalLibrary::DigitalLibrary(webspace::WebspaceStore store)
    : store_(std::move(store)),
      meta_index_(core::MetaIndex::Create().TakeValue()) {}

Result<std::unique_ptr<DigitalLibrary>> DigitalLibrary::Create(
    webspace::WebspaceStore store) {
  for (const char* cls : {"Player", "Tournament", "Interview", "Video"}) {
    if (!store.schema().HasClass(cls)) {
      return Status::InvalidArgument(
          StringFormat("store lacks tournament class '%s'", cls));
    }
  }
  return std::unique_ptr<DigitalLibrary>(new DigitalLibrary(std::move(store)));
}

Result<std::unique_ptr<DigitalLibrary>> DigitalLibrary::CreateFromParts(
    webspace::WebspaceStore store, text::InvertedIndex interviews,
    core::MetaIndex meta_index, std::vector<int64_t> indexed_videos,
    int64_t index_epoch,
    std::vector<std::pair<const vision::SignatureRecord*, size_t>>
        signature_chunks) {
  COBRA_ASSIGN_OR_RETURN(std::unique_ptr<DigitalLibrary> library,
                         Create(std::move(store)));
  if (index_epoch < 0) {
    return Status::InvalidArgument("negative index epoch");
  }
  library->interviews_ = std::move(interviews);
  library->meta_index_ = std::move(meta_index);
  library->indexed_videos_ = std::move(indexed_videos);
  library->index_epoch_ = index_epoch;
  size_t total = 0;
  for (const auto& chunk : signature_chunks) total += chunk.second;
  library->signatures_.ReserveRows(total);
  for (const auto& [records, count] : signature_chunks) {
    library->signatures_.AddBaseChunk(records, count);
  }
  return library;
}

Status DigitalLibrary::AddInterview(int64_t interview_oid,
                                    const std::string& text) {
  return interviews_.AddText(interview_oid, text);
}

Status DigitalLibrary::FinalizeText() {
  COBRA_RETURN_NOT_OK(interviews_.Finalize());
  ++index_epoch_;
  return Status::OK();
}

Status DigitalLibrary::AddVideoDescription(const core::VideoDescription& desc) {
  COBRA_RETURN_NOT_OK(meta_index_.AddVideo(desc));
  indexed_videos_.push_back(desc.video_id());
  ++index_epoch_;
  return Status::OK();
}

Status DigitalLibrary::AddVideoSignatures(
    int64_t video_id, const std::vector<vision::SignatureRecord>& records) {
  for (const vision::SignatureRecord& rec : records) {
    if (rec.video_id != video_id) {
      return Status::InvalidArgument(StringFormat(
          "signature record for video %lld added under video %lld",
          static_cast<long long>(rec.video_id),
          static_cast<long long>(video_id)));
    }
  }
  signatures_.AddRecords(records.data(), records.size());
  ++index_epoch_;
  return Status::OK();
}

Status DigitalLibrary::SetSignatureConfig(
    const similarity::SignatureIndexConfig& config) {
  COBRA_RETURN_NOT_OK(signatures_.SetConfig(config));
  ++index_epoch_;
  return Status::OK();
}

Result<vision::ShotSignature> ResolveProbeSignature(
    const similarity::SignatureIndex& index, const CombinedQuery& query) {
  const vision::SignatureRecord* rec =
      index.FindShot(query.similar_video, query.similar_frame);
  if (rec == nullptr) {
    return Status::NotFound(StringFormat(
        "no signature indexed for video %lld frame %lld",
        static_cast<long long>(query.similar_video),
        static_cast<long long>(query.similar_frame)));
  }
  return rec->sig;
}

size_t EffectiveSimilarK(const similarity::SignatureIndex& index,
                         const CombinedQuery& query) {
  return query.similar_k > 0 ? query.similar_k : index.config().rerank_k;
}

SimilarNeighbors BuildSimilarNeighbors(
    const std::vector<similarity::Neighbor>& candidates,
    const CombinedQuery& query, size_t k) {
  SimilarNeighbors by_video;
  size_t kept = 0;
  for (const similarity::Neighbor& nb : candidates) {
    if (kept == k) break;
    // The probe's own shot is trivially distance 0; it is not an answer.
    if (nb.record->video_id == query.similar_video &&
        nb.record->begin <= query.similar_frame &&
        query.similar_frame <= nb.record->end) {
      continue;
    }
    by_video[nb.record->video_id].push_back(
        SimilarShot{FrameInterval{nb.record->begin, nb.record->end},
                    similarity::DistanceKey(nb.hamming, nb.l2sq)});
    ++kept;
  }
  return by_video;
}

Result<SimilarNeighbors> SimilarStage(const similarity::SignatureIndex& index,
                                      const CombinedQuery& query,
                                      similarity::SimilaritySearchStats* stats) {
  COBRA_ASSIGN_OR_RETURN(vision::ShotSignature sig,
                         ResolveProbeSignature(index, query));
  const size_t k = EffectiveSimilarK(index, query);
  // k + 1 so the probe's own shot (distance 0, excluded below) never
  // displaces a real neighbor.
  return BuildSimilarNeighbors(index.SearchSimilar(sig, k + 1, stats), query,
                               k);
}

Result<std::vector<int64_t>> DigitalLibrary::ConceptPlayers(
    const CombinedQuery& query) const {
  webspace::ClassSelection selection{"Player", query.player_predicates};
  COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> players,
                         webspace::SelectObjects(store_, selection));
  if (!query.require_champion && query.won_year < 0) return players;

  webspace::ClassSelection tournaments{"Tournament", {}};
  if (query.won_year >= 0) {
    tournaments.predicates.push_back(
        {"year", storage::CompareOp::kEq, query.won_year});
  }
  COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> tournament_oids,
                         webspace::SelectObjects(store_, tournaments));
  COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> champions,
                         store_.TraverseReverse("won", tournament_oids));
  std::set<int64_t> champion_set(champions.begin(), champions.end());
  std::vector<int64_t> out;
  for (int64_t p : players) {
    if (champion_set.count(p)) out.push_back(p);
  }
  return out;
}

Result<std::map<int64_t, double>> DigitalLibrary::TextPlayers(
    const std::string& text, size_t top_k, text::SearchStats* stats) const {
  COBRA_ASSIGN_OR_RETURN(std::vector<text::SearchHit> hits,
                         interviews_.SearchTopN(text, top_k, stats));
  std::map<int64_t, double> player_scores;
  for (const text::SearchHit& hit : hits) {
    COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> players,
                           store_.TraverseReverse("interviewed_in", {hit.doc_id}));
    for (int64_t p : players) {
      auto [it, inserted] = player_scores.emplace(p, hit.score);
      if (!inserted) it->second = std::max(it->second, hit.score);
    }
  }
  return player_scores;
}

Result<std::vector<SceneHit>> DigitalLibrary::Search(
    const CombinedQuery& query, text::SearchStats* stats,
    planner::PlanExplain* explain,
    const std::map<int64_t, double>* text_seed,
    const SimilarSeed* similar_seed, size_t limit) const {
  auto fixed_order = [&]() -> Result<std::vector<SceneHit>> {
    if (explain) *explain = planner::PlanExplain{};
    COBRA_ASSIGN_OR_RETURN(
        std::vector<SceneHit> hits,
        SearchFixedOrder(query, stats, text_seed, similar_seed));
    if (limit > 0 && hits.size() > limit) hits.resize(limit);
    return hits;
  };
  if (!planner_enabled_) return fixed_order();
  // Lazy-validation parity: the fixed order never checks a predicate past
  // an empty selection (storage::SelectAll stops refining), so whether a
  // malformed predicate errors depends on actual row sets. Those rare
  // queries go to the reference path verbatim.
  if (auto players = store_.ClassTable("Player"); players.ok()) {
    for (const storage::Predicate& pred : query.player_predicates) {
      if (!storage::ValidatePredicate(*players.value(), pred).ok()) {
        return fixed_order();
      }
    }
  }
  planner::LibraryView view{&store_, &interviews_, &meta_index_,
                            &indexed_videos_, &signatures_};
  planner::PlanExplain local;
  return planner::SearchPlanned(view, query, stats,
                                explain ? explain : &local, text_seed,
                                similar_seed, limit);
}

Result<planner::PlanExplain> DigitalLibrary::ExplainSearch(
    const CombinedQuery& query) const {
  planner::LibraryView view{&store_, &interviews_, &meta_index_,
                            &indexed_videos_, &signatures_};
  planner::PlanExplain explain;
  COBRA_RETURN_NOT_OK(
      planner::SearchPlanned(view, query, nullptr, &explain).status());
  return explain;
}

Result<std::vector<SceneHit>> DigitalLibrary::SearchFixedOrder(
    const CombinedQuery& query, text::SearchStats* stats,
    const std::map<int64_t, double>* text_seed,
    const SimilarSeed* similar_seed) const {
  if (stats) *stats = text::SearchStats{};
  COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> players, ConceptPlayers(query));

  std::map<int64_t, double> text_scores;
  if (!query.text.empty()) {
    if (text_seed) {
      // Error parity with the unseeded path: a zero-budget probe surfaces
      // the same not-finalized / malformed-query errors SearchTopN would.
      COBRA_RETURN_NOT_OK(interviews_.SearchTopN(query.text, 0).status());
      text_scores = *text_seed;
    } else {
      COBRA_ASSIGN_OR_RETURN(
          text_scores, TextPlayers(query.text, query.text_top_k, stats));
    }
    std::vector<int64_t> filtered;
    for (int64_t p : players) {
      if (text_scores.count(p)) filtered.push_back(p);
    }
    players = std::move(filtered);
  }

  // The similar stage runs unconditionally after the text stage (stage
  // order: concept -> text -> similar -> event) so an unresolvable probe
  // surfaces its NotFound even when the player set is already empty —
  // error parity the planner and serving tier replicate. A frontend seed
  // means the probe was already resolved globally; the local (partition-
  // scoped) index is not consulted at all.
  const bool has_similar = query.similar_video >= 0;
  SimilarNeighbors similar;
  if (has_similar) {
    if (similar_seed) {
      similar = similar_seed->neighbors;
    } else {
      COBRA_ASSIGN_OR_RETURN(similar, SimilarStage(signatures_, query));
    }
  }

  std::vector<SceneHit> out;
  std::set<int64_t> indexed(indexed_videos_.begin(), indexed_videos_.end());
  for (int64_t player : players) {
    COBRA_ASSIGN_OR_RETURN(storage::Value name_value,
                           store_.GetAttribute("Player", player, "name"));
    std::string name = std::get<std::string>(name_value);
    double text_score =
        text_scores.count(player) ? text_scores.at(player) : 0.0;

    if (query.event.empty() && !has_similar) {
      SceneHit hit;
      hit.player_oid = player;
      hit.player_name = name;
      hit.text_score = text_score;
      out.push_back(std::move(hit));
      continue;
    }

    COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> videos,
                           store_.Traverse("plays_in", {player}));
    for (int64_t video : videos) {
      if (!indexed.count(video)) continue;
      const std::vector<SimilarShot>* neighbors = nullptr;
      if (has_similar) {
        auto it = similar.find(video);
        if (it == similar.end()) continue;
        neighbors = &it->second;
      }

      if (query.event.empty()) {
        // Similar-only content condition: every neighbor shot of a video
        // the player plays in is an answer scene.
        for (const SimilarShot& shot : *neighbors) {
          SceneHit hit;
          hit.player_oid = player;
          hit.player_name = name;
          hit.video_oid = video;
          hit.range = shot.range;
          hit.text_score = text_score;
          hit.similarity = shot.distance;
          out.push_back(std::move(hit));
        }
        continue;
      }

      COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> roles,
                             store_.Roles("plays_in", player, video));
      std::set<int64_t> role_set(roles.begin(), roles.end());
      // The fixed order keeps the events-table scan (not the event index),
      // so the planner is always checked against an independent path.
      COBRA_ASSIGN_OR_RETURN(std::vector<core::Scene> scenes,
                             meta_index_.ScanScenes(query.event, video));
      for (const core::Scene& scene : scenes) {
        // A scene matches if it shows the player's court side, or if it is
        // court-level (player < 0: serves, rallies involve both players).
        if (scene.player >= 0 && !role_set.count(scene.player)) continue;
        // Event + similar: the scene must overlap a neighbor shot of the
        // same video; it scores the best (smallest) overlapping key.
        double similarity = -1.0;
        if (neighbors) {
          bool overlapped = false;
          for (const SimilarShot& shot : *neighbors) {
            if (!scene.range.Overlaps(shot.range)) continue;
            if (!overlapped || shot.distance < similarity) {
              similarity = shot.distance;
            }
            overlapped = true;
          }
          if (!overlapped) continue;
        }
        SceneHit hit;
        hit.player_oid = player;
        hit.player_name = name;
        hit.video_oid = video;
        hit.range = scene.range;
        hit.event = scene.event;
        hit.text_score = text_score;
        hit.similarity = similarity;
        out.push_back(std::move(hit));
      }
    }
  }
  // Total deterministic order: relevance first, then every remaining field
  // as a tie-break so equal-score hits never depend on traversal order.
  std::sort(out.begin(), out.end(), SceneHitLess);
  return out;
}

Result<std::vector<SceneHit>> DigitalLibrary::SearchKeywordOnly(
    const std::string& text, size_t top_k, text::SearchStats* stats) const {
  if (stats) *stats = text::SearchStats{};
  COBRA_ASSIGN_OR_RETURN(auto player_scores, TextPlayers(text, top_k, stats));
  std::vector<SceneHit> out;
  for (const auto& [player, score] : player_scores) {
    SceneHit hit;
    hit.player_oid = player;
    COBRA_ASSIGN_OR_RETURN(storage::Value name,
                           store_.GetAttribute("Player", player, "name"));
    hit.player_name = std::get<std::string>(name);
    hit.text_score = score;
    out.push_back(std::move(hit));
  }
  std::sort(out.begin(), out.end(), [](const SceneHit& a, const SceneHit& b) {
    if (a.text_score != b.text_score) return a.text_score > b.text_score;
    return a.player_oid < b.player_oid;
  });
  return out;
}

Result<std::vector<storage::GroupRow>> DigitalLibrary::EventStatistics() const {
  return storage::GroupBy(meta_index_.events(), "name",
                          storage::AggregateOp::kCount);
}

Result<std::vector<std::pair<std::string, int64_t>>>
DigitalLibrary::ScenesPerPlayer(const std::string& event) const {
  COBRA_ASSIGN_OR_RETURN(const storage::Table* players,
                         store_.ClassTable("Player"));
  std::vector<std::pair<std::string, int64_t>> out;
  std::set<int64_t> indexed(indexed_videos_.begin(), indexed_videos_.end());
  COBRA_ASSIGN_OR_RETURN(size_t name_col, players->ColumnIndex("name"));
  const auto& oids = players->IntColumn(0);
  const auto& names = players->StringColumn(name_col);
  for (int64_t row = 0; row < players->num_rows(); ++row) {
    const int64_t oid = oids[static_cast<size_t>(row)];
    std::string name = names[static_cast<size_t>(row)];
    int64_t scenes = 0;
    COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> videos,
                           store_.Traverse("plays_in", {oid}));
    for (int64_t video : videos) {
      if (!indexed.count(video)) continue;
      COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> roles,
                             store_.Roles("plays_in", oid, video));
      std::set<int64_t> role_set(roles.begin(), roles.end());
      COBRA_ASSIGN_OR_RETURN(std::vector<core::Scene> found,
                             meta_index_.FindScenes(event, video));
      for (const core::Scene& scene : found) {
        if (scene.player < 0 || role_set.count(scene.player)) ++scenes;
      }
    }
    if (scenes > 0) out.emplace_back(std::move(name), scenes);
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  return out;
}

}  // namespace cobra::engine
