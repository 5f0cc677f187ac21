#pragma once

/// \file planner.h
/// The cost-based combined-query planner (DESIGN.md §4g). Instead of the
/// fixed concept -> text -> event pipeline of
/// `DigitalLibrary::SearchFixedOrder`, `SearchPlanned` orders the stages
/// and picks physical operators from exact table statistics
/// (`storage::Table::Stats`, `storage::EstimateSelectivity`):
///   * attribute predicates run cheapest-and-most-selective first;
///   * the champion join runs before the attribute scan when the winners
///     set is estimated smaller than the player table;
///   * the text stage either seeds the candidate set (text-first), runs
///     globally, or — when the top-N bound provably cannot truncate — takes
///     the concept candidates as a DAAT accept filter
///     (`InvertedIndex::SearchTopNFiltered`) so postings of non-candidates
///     are skipped block-wise;
///   * the event stage is an index nested loop: one lookup in the
///     meta-index's (video, event) index per surviving (player, video)
///     pair, where the fixed order scans the events table per pair;
///   * provably-empty modalities (dictionary miss, empty zone range, no
///     indexed videos) short-circuit the whole plan;
///   * a top-N `limit` is pushed into the final stage: answer scenes are
///     collected as light candidates (scores, video, range, player), the
///     first `limit` are ranked with a partial sort, and only those become
///     SceneHits with their player name and event strings.
/// Results are bit-identical to the fixed order (truncated to `limit`) on
/// every query, including error behavior: short-circuits still surface
/// exactly the validation errors the fixed pipeline would have hit.

#include <map>
#include <vector>

#include "engine/digital_library.h"
#include "engine/planner/plan.h"

namespace cobra::engine::planner {

/// Non-owning view of the DigitalLibrary internals the planner reads.
struct LibraryView {
  const webspace::WebspaceStore* store = nullptr;
  const text::InvertedIndex* interviews = nullptr;
  const core::MetaIndex* meta_index = nullptr;
  const std::vector<int64_t>* indexed_videos = nullptr;
  const similarity::SignatureIndex* signatures = nullptr;
};

/// Plans and executes `query`. `stats` (optional) receives the text-index
/// work counters; `explain` (optional) receives the executed plan — written
/// on success and on short-circuit, untouched when planning fails early.
///
/// `text_seed` (optional) is a precomputed player→score text stage (see
/// DigitalLibrary::TextStage); when usable it replaces the local DAAT run.
/// The seed must come from an identical interview index + store, which the
/// serving tier guarantees by replicating the text modality per shard.
///
/// `similar_seed` (optional) is the frontend-resolved similar stage (see
/// DigitalLibrary::SimilarSeed); when present and the query has a
/// similar_to condition, the neighbor set is taken verbatim instead of
/// probing the local (partition-scoped) ANN index.
///
/// `limit` > 0 returns only the first `limit` hits of the full answer
/// under SceneHitLess (0 = every hit). The explain record's `hits` step
/// still counts every candidate; a `top_n` step shows the cut.
Result<std::vector<SceneHit>> SearchPlanned(
    const LibraryView& view, const CombinedQuery& query,
    text::SearchStats* stats, PlanExplain* explain,
    const std::map<int64_t, double>* text_seed = nullptr,
    const SimilarSeed* similar_seed = nullptr, size_t limit = 0);

}  // namespace cobra::engine::planner
