#pragma once

/// \file meta_index.h
/// The meta-index: video meta-data projected into column-store tables so
/// the digital library engine can query it relationally ("managing the
/// meta-index now boils down to exploiting the dependencies in the feature
/// grammar", paper §3).

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/video_description.h"
#include "storage/ops.h"
#include "storage/table.h"

namespace cobra::core {

/// A video scene answering a content-based query.
struct Scene {
  int64_t video_id = 0;
  FrameInterval range;
  int64_t player = -1;       ///< acting player, -1 = court-level
  std::string event;         ///< event symbol ("net_play", ...)
};

/// Columnar projection of VideoDescriptions.
///
/// Tables:
///   shots  (video_id, begin, end, category, dominant_ratio, skin_ratio,
///           entropy)
///   objects(video_id, begin, end, player, observed_fraction, mean_area,
///           mean_eccentricity)
///   events (video_id, name, player, begin, end)
///
/// The events table also carries an in-memory index keyed by (video_id,
/// `name` dictionary code): the rows of one key form a chain of int32 row
/// ids in table order (DESIGN.md §4f). It is built in one O(rows) pass by
/// FromTables, extended by AddVideo, and never persisted.
class MetaIndex {
 public:
  /// Creates the empty tables.
  static Result<MetaIndex> Create();

  /// Reassembles an index from persisted tables. Schemas must match the
  /// layouts documented above (validated against Create()'s); the video
  /// count is persisted separately since empty videos add no rows.
  static Result<MetaIndex> FromTables(storage::Table shots,
                                      storage::Table objects,
                                      storage::Table events,
                                      int64_t num_videos);

  /// Loads every layer of `desc` into the tables.
  Status AddVideo(const VideoDescription& desc);

  const storage::Table& shots() const { return shots_; }
  const storage::Table& objects() const { return objects_; }
  const storage::Table& events() const { return events_; }

  int64_t num_videos() const { return num_videos_; }

  /// Scenes showing `event_name`, optionally restricted to one video
  /// (video_id >= 0) and/or one player (player >= 0), in table order. With
  /// a video this is an event-index lookup; without one, a table scan.
  Result<std::vector<Scene>> FindScenes(const std::string& event_name,
                                        int64_t video_id = -1,
                                        int64_t player = -1) const;

  /// FindScenes answered by a `storage::SelectAll` scan of the events
  /// table, never the event index: the fixed-order search pipeline's path,
  /// kept as the independent implementation the index is checked against.
  Result<std::vector<Scene>> ScanScenes(const std::string& event_name,
                                        int64_t video_id = -1,
                                        int64_t player = -1) const;

  /// Dictionary code of `event_name` in the events table's `name` column,
  /// or -1 when no row holds it.
  int32_t EventCode(const std::string& event_name) const;

  /// Events-table rows of `video_id` whose `name` has dictionary code
  /// `code`, ascending; empty for an unknown video or code.
  std::vector<int32_t> EventRows(int64_t video_id, int32_t code) const;

  /// The scene stored in events-table row `row` (must be in range).
  Scene SceneAt(int64_t row) const;

  /// Shot intervals of a category ("tennis", "close-up", ...) in a video.
  Result<std::vector<FrameInterval>> FindShots(const std::string& category,
                                               int64_t video_id) const;

 private:
  MetaIndex(storage::Table shots, storage::Table objects, storage::Table events)
      : shots_(std::move(shots)),
        objects_(std::move(objects)),
        events_(std::move(events)) {}

  /// First and last row of one (video_id, name code) chain; -1 = empty.
  struct EventChain {
    int32_t head = -1;
    int32_t tail = -1;
  };

  /// Extends the event index over the events rows it does not cover yet.
  Status IndexEventRows();

  storage::Table shots_;
  storage::Table objects_;
  storage::Table events_;
  int64_t num_videos_ = 0;
  /// event_next_[r] = next row of row r's (video_id, name code) chain, -1
  /// at its end; one entry per indexed events row.
  std::vector<int32_t> event_next_;
  /// video_id -> chains indexed by name code.
  std::unordered_map<int64_t, std::vector<EventChain>> event_chains_;
};

}  // namespace cobra::core
