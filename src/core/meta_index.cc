#include "core/meta_index.h"

#include <limits>

namespace cobra::core {

using storage::CompareOp;
using storage::DataType;
using storage::Predicate;
using storage::Table;
using storage::Value;

Result<MetaIndex> MetaIndex::Create() {
  COBRA_ASSIGN_OR_RETURN(
      Table shots, Table::Create({{"video_id", DataType::kInt64},
                                  {"begin", DataType::kInt64},
                                  {"end", DataType::kInt64},
                                  {"category", DataType::kString},
                                  {"dominant_ratio", DataType::kDouble},
                                  {"skin_ratio", DataType::kDouble},
                                  {"entropy", DataType::kDouble}}));
  COBRA_ASSIGN_OR_RETURN(
      Table objects, Table::Create({{"video_id", DataType::kInt64},
                                    {"begin", DataType::kInt64},
                                    {"end", DataType::kInt64},
                                    {"player", DataType::kInt64},
                                    {"observed_fraction", DataType::kDouble},
                                    {"mean_area", DataType::kDouble},
                                    {"mean_eccentricity", DataType::kDouble}}));
  COBRA_ASSIGN_OR_RETURN(Table events,
                         Table::Create({{"video_id", DataType::kInt64},
                                        {"name", DataType::kString},
                                        {"player", DataType::kInt64},
                                        {"begin", DataType::kInt64},
                                        {"end", DataType::kInt64}}));
  return MetaIndex(std::move(shots), std::move(objects), std::move(events));
}

Result<MetaIndex> MetaIndex::FromTables(Table shots, Table objects,
                                        Table events, int64_t num_videos) {
  COBRA_ASSIGN_OR_RETURN(MetaIndex empty, Create());
  auto same_schema = [](const Table& got, const Table& want) {
    if (got.schema().size() != want.schema().size()) return false;
    for (size_t i = 0; i < got.schema().size(); ++i) {
      if (got.schema()[i].name != want.schema()[i].name ||
          got.schema()[i].type != want.schema()[i].type) {
        return false;
      }
    }
    return true;
  };
  if (!same_schema(shots, empty.shots_) ||
      !same_schema(objects, empty.objects_) ||
      !same_schema(events, empty.events_)) {
    return Status::InvalidArgument("restored meta-index table schema mismatch");
  }
  if (num_videos < 0) {
    return Status::InvalidArgument("negative video count");
  }
  MetaIndex index(std::move(shots), std::move(objects), std::move(events));
  index.num_videos_ = num_videos;
  COBRA_RETURN_NOT_OK(index.IndexEventRows());
  return index;
}

Status MetaIndex::IndexEventRows() {
  const int64_t rows = events_.num_rows();
  if (rows > std::numeric_limits<int32_t>::max()) {
    return Status::OutOfRange("events table exceeds int32 row ids");
  }
  const auto& vids = events_.IntColumn(0);
  const auto& codes = events_.StringCodes(1);
  event_next_.reserve(static_cast<size_t>(rows));
  // A video's rows are usually contiguous, so the chain vector of the
  // previous row's video is reused without a hash lookup.
  std::vector<EventChain>* chains = nullptr;
  int64_t chains_video = 0;
  for (size_t r = event_next_.size(); r < static_cast<size_t>(rows); ++r) {
    if (chains == nullptr || vids[r] != chains_video) {
      chains_video = vids[r];
      chains = &event_chains_[chains_video];
    }
    const size_t code = static_cast<size_t>(codes[r]);
    if (code >= chains->size()) chains->resize(code + 1);
    EventChain& chain = (*chains)[code];
    const int32_t row = static_cast<int32_t>(r);
    if (chain.tail < 0) {
      chain.head = row;
    } else {
      event_next_[static_cast<size_t>(chain.tail)] = row;
    }
    chain.tail = row;
    event_next_.push_back(-1);
  }
  return Status::OK();
}

Status MetaIndex::AddVideo(const VideoDescription& desc) {
  const int64_t vid = desc.video_id();
  for (const grammar::Annotation& a : desc.Layer(CobraLayer::kFeature)) {
    if (a.symbol != "segment") continue;
    COBRA_RETURN_NOT_OK(shots_.AppendRow(
        {vid, a.range.begin, a.range.end, a.StringOr("category", "other"),
         a.DoubleOr("dominant_ratio", 0.0), a.DoubleOr("skin_ratio", 0.0),
         a.DoubleOr("entropy", 0.0)}));
  }
  for (const grammar::Annotation& a : desc.Layer(CobraLayer::kObject)) {
    if (a.symbol != "features") continue;
    COBRA_RETURN_NOT_OK(objects_.AppendRow(
        {vid, a.range.begin, a.range.end, a.IntOr("player", -1),
         a.DoubleOr("observed_fraction", 0.0), a.DoubleOr("mean_area", 0.0),
         a.DoubleOr("mean_eccentricity", 0.0)}));
  }
  Status appended;
  for (const grammar::Annotation& a : desc.Layer(CobraLayer::kEvent)) {
    appended = events_.AppendRow(
        {vid, a.symbol, a.IntOr("player", -1), a.range.begin, a.range.end});
    if (!appended.ok()) break;
  }
  // Index whatever was appended, so the index never lags the table.
  COBRA_RETURN_NOT_OK(IndexEventRows());
  COBRA_RETURN_NOT_OK(appended);
  ++num_videos_;
  return Status::OK();
}

int32_t MetaIndex::EventCode(const std::string& event_name) const {
  return events_.DictCode(1, event_name);
}

std::vector<int32_t> MetaIndex::EventRows(int64_t video_id,
                                          int32_t code) const {
  std::vector<int32_t> rows;
  auto it = event_chains_.find(video_id);
  if (code < 0 || it == event_chains_.end() ||
      static_cast<size_t>(code) >= it->second.size()) {
    return rows;
  }
  for (int32_t r = it->second[static_cast<size_t>(code)].head; r >= 0;
       r = event_next_[static_cast<size_t>(r)]) {
    rows.push_back(r);
  }
  return rows;
}

Scene MetaIndex::SceneAt(int64_t row) const {
  const size_t i = static_cast<size_t>(row);
  Scene scene;
  scene.video_id = events_.IntColumn(0)[i];
  scene.event = events_.StringColumn(1)[i];
  scene.player = events_.IntColumn(2)[i];
  scene.range.begin = events_.IntColumn(3)[i];
  scene.range.end = events_.IntColumn(4)[i];
  return scene;
}

Result<std::vector<Scene>> MetaIndex::FindScenes(const std::string& event_name,
                                                 int64_t video_id,
                                                 int64_t player) const {
  if (video_id < 0) return ScanScenes(event_name, video_id, player);
  const auto& players = events_.IntColumn(2);
  std::vector<Scene> out;
  for (int32_t r : EventRows(video_id, EventCode(event_name))) {
    if (player >= 0 && players[static_cast<size_t>(r)] != player) continue;
    out.push_back(SceneAt(r));
  }
  return out;
}

Result<std::vector<Scene>> MetaIndex::ScanScenes(const std::string& event_name,
                                                 int64_t video_id,
                                                 int64_t player) const {
  std::vector<Predicate> preds = {
      Predicate{"name", CompareOp::kEq, event_name}};
  if (video_id >= 0) {
    preds.push_back(Predicate{"video_id", CompareOp::kEq, video_id});
  }
  if (player >= 0) {
    preds.push_back(Predicate{"player", CompareOp::kEq, player});
  }
  COBRA_ASSIGN_OR_RETURN(std::vector<int64_t> rows,
                         storage::SelectAll(events_, preds));
  std::vector<Scene> out;
  out.reserve(rows.size());
  for (int64_t r : rows) out.push_back(SceneAt(r));
  return out;
}

Result<std::vector<FrameInterval>> MetaIndex::FindShots(
    const std::string& category, int64_t video_id) const {
  COBRA_ASSIGN_OR_RETURN(
      std::vector<int64_t> rows,
      storage::SelectAll(
          shots_, {Predicate{"category", CompareOp::kEq, category},
                   Predicate{"video_id", CompareOp::kEq, video_id}}));
  const auto& begins = shots_.IntColumn(1);
  const auto& ends = shots_.IntColumn(2);
  std::vector<FrameInterval> out;
  out.reserve(rows.size());
  for (int64_t r : rows) {
    out.push_back(FrameInterval{begins[static_cast<size_t>(r)],
                                ends[static_cast<size_t>(r)]});
  }
  return out;
}

}  // namespace cobra::core
