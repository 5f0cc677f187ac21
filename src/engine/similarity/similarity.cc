#include "engine/similarity/similarity.h"

#include <algorithm>
#include <cstring>

#include "util/rng.h"
#include "vision/signature_kernels.h"

namespace cobra::engine::similarity {

namespace {

namespace sk = vision::signature_kernels;

constexpr size_t kOwnedChunkCapacity = 4096;

Status ValidateConfig(const SignatureIndexConfig& config) {
  if (config.signature_bits < 64 || config.signature_bits > 256 ||
      config.signature_bits % 64 != 0) {
    return Status::InvalidArgument("signature_bits must be 64/128/192/256");
  }
  if (config.ann_bands < 1 ||
      config.signature_bits % config.ann_bands != 0) {
    return Status::InvalidArgument("ann_bands must divide signature_bits");
  }
  const int width = config.signature_bits / config.ann_bands;
  if (width > 64 || 64 % width != 0) {
    return Status::InvalidArgument(
        "band width must be at most 64 bits and divide 64");
  }
  if (config.rerank_k == 0) {
    return Status::InvalidArgument("rerank_k must be positive");
  }
  return Status::OK();
}

/// C(w, r) as a double (overflow-safe for the probe estimate).
double Binomial(int w, int r) {
  double v = 1.0;
  for (int i = 0; i < r; ++i) v = v * (w - i) / (i + 1);
  return v;
}

/// Invokes fn(code) for every `width`-bit code at Hamming distance exactly
/// `radius` from `key`. Combination recursion; radius is small (the caller
/// bounds total enumeration by the record count).
template <typename Fn>
void ForEachFlip(uint64_t key, int width, int radius, int first_bit, Fn&& fn) {
  if (radius == 0) {
    fn(key);
    return;
  }
  for (int bit = first_bit; bit <= width - radius; ++bit) {
    ForEachFlip(key ^ (uint64_t{1} << bit), width, radius - 1, bit + 1, fn);
  }
}

/// Copies `hash` with bits at and past `bits` cleared.
void MaskHash(const uint64_t* hash, int bits, uint64_t* out) {
  for (int w = 0; w < 4; ++w) {
    out[w] = (w * 64 < bits) ? hash[w] : 0;
  }
}

/// Open-addressing set of record rows; grows at 70% load. Candidate sets
/// are tiny relative to the corpus, so this beats an O(n) seen-bitmap
/// allocation per query.
class RowSet {
 public:
  explicit RowSet(size_t expected) {
    size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    slots_.assign(cap, -1);
  }

  /// True if `row` was newly inserted.
  bool Insert(int32_t row) {
    if ((size_ + 1) * 10 > slots_.size() * 7) Grow();
    const size_t mask = slots_.size() - 1;
    size_t s = cobra::MixHash(static_cast<uint64_t>(row)) & mask;
    while (slots_[s] >= 0) {
      if (slots_[s] == row) return false;
      s = (s + 1) & mask;
    }
    slots_[s] = row;
    ++size_;
    return true;
  }

 private:
  void Grow() {
    std::vector<int32_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, -1);
    const size_t mask = slots_.size() - 1;
    for (int32_t v : old) {
      if (v < 0) continue;
      size_t s = cobra::MixHash(static_cast<uint64_t>(v)) & mask;
      while (slots_[s] >= 0) s = (s + 1) & mask;
      slots_[s] = v;
    }
  }

  std::vector<int32_t> slots_;
  size_t size_ = 0;
};

}  // namespace

bool NeighborBefore(const Neighbor& a, const Neighbor& b) {
  if (a.hamming != b.hamming) return a.hamming < b.hamming;
  if (a.l2sq != b.l2sq) return a.l2sq < b.l2sq;
  if (a.record->video_id != b.record->video_id) {
    return a.record->video_id < b.record->video_id;
  }
  if (a.record->begin != b.record->begin) {
    return a.record->begin < b.record->begin;
  }
  return a.record->end < b.record->end;
}

SignatureIndex::SignatureIndex(SignatureIndexConfig config) {
  // Constructors cannot report: an invalid config keeps the defaults
  // (configurable paths go through SetConfig, which does report).
  if (!SetConfig(config).ok()) {
    const Status fallback = SetConfig(SignatureIndexConfig{});
    (void)fallback;
  }
}

Status SignatureIndex::SetConfig(const SignatureIndexConfig& config) {
  COBRA_RETURN_NOT_OK(ValidateConfig(config));
  config_ = config;
  RebuildTables(num_records_ + 1);
  return Status::OK();
}

const vision::SignatureRecord& SignatureIndex::record(size_t i) const {
  return *rows_[i];
}

void SignatureIndex::ReserveRows(size_t rows) {
  // Grow every band table together when load would pass ~50%.
  if (bands_.empty() || bands_[0].slots.size() < rows * 2) {
    RebuildTables(rows);
  }
}

void SignatureIndex::AddRecords(const vision::SignatureRecord* records,
                                size_t count) {
  ReserveRows(num_records_ + count);
  for (size_t i = 0; i < count; ++i) {
    // A fresh fixed-capacity chunk keeps prior record pointers stable
    // (vectors are reserved up front and never reallocated). A new chunk
    // is also needed when a base chunk interleaved: chunk order is row
    // order.
    if (chunks_.empty() || chunks_.back().is_base ||
        chunks_.back().count == kOwnedChunkCapacity) {
      owned_.emplace_back();
      owned_.back().reserve(kOwnedChunkCapacity);
      chunks_.push_back(
          Chunk{owned_.back().data(), 0, num_records_, /*is_base=*/false});
    }
    owned_.back().push_back(records[i]);
    ++chunks_.back().count;
    rows_.push_back(&owned_.back().back());
    InsertIntoBands(num_records_);
    ++num_records_;
  }
}

void SignatureIndex::AddBaseChunk(const vision::SignatureRecord* records,
                                  size_t count) {
  if (count == 0) return;
  ReserveRows(num_records_ + count);
  chunks_.push_back(Chunk{records, count, num_records_, /*is_base=*/true});
  for (size_t i = 0; i < count; ++i) {
    rows_.push_back(records + i);
    InsertIntoBands(num_records_);
    ++num_records_;
  }
}

std::vector<std::pair<const vision::SignatureRecord*, size_t>>
SignatureIndex::OwnedFrom(size_t from_row) const {
  std::vector<std::pair<const vision::SignatureRecord*, size_t>> out;
  for (const Chunk& c : chunks_) {
    if (c.is_base || c.start + c.count <= from_row) continue;
    const size_t skip = from_row > c.start ? from_row - c.start : 0;
    out.emplace_back(c.data + skip, c.count - skip);
  }
  return out;
}

uint64_t SignatureIndex::BandKey(const uint64_t* hash, int band) const {
  const int width = config_.signature_bits / config_.ann_bands;
  const int offset = band * width;
  const uint64_t word = hash[offset / 64];
  const uint64_t shifted = word >> (offset % 64);
  return width == 64 ? shifted : (shifted & ((uint64_t{1} << width) - 1));
}

int32_t SignatureIndex::FindChain(const BandTable& table, int band,
                                  uint64_t key) const {
  if (table.slots.empty()) return -1;
  // Band keys at most 32 bits wide fit the slot tag whole, so a tag match
  // IS a key match; wider bands confirm against the hash cache.
  const bool tag_is_key = config_.signature_bits / config_.ann_bands <= 32;
  const uint32_t tag = static_cast<uint32_t>(key);
  size_t s = cobra::MixHash(key) & table.mask;
  while (true) {
    const Slot slot = table.slots[s];
    if (slot.head < 0) return -1;
    if (slot.tag == tag &&
        (tag_is_key ||
         BandKey(hash4_.data() + static_cast<size_t>(slot.head) * 4, band) ==
             key)) {
      return slot.head;
    }
    s = (s + 1) & table.mask;
  }
}

void SignatureIndex::InsertIntoBands(size_t row) {
  uint64_t masked[4];
  MaskHash(rows_[row]->sig.hash, config_.signature_bits, masked);
  hash4_.insert(hash4_.end(), masked, masked + 4);
  const uint64_t* hash = hash4_.data() + row * 4;
  const bool tag_is_key = config_.signature_bits / config_.ann_bands <= 32;
  for (int b = 0; b < config_.ann_bands; ++b) {
    BandTable& table = bands_[b];
    const uint64_t key = BandKey(hash, b);
    const uint32_t tag = static_cast<uint32_t>(key);
    size_t s = cobra::MixHash(key) & table.mask;
    while (true) {
      const Slot slot = table.slots[s];
      if (slot.head < 0) {
        table.slots[s] = Slot{static_cast<int32_t>(row), tag};
        table.next[row] = -1;
        break;
      }
      if (slot.tag == tag &&
          (tag_is_key ||
           BandKey(hash4_.data() + static_cast<size_t>(slot.head) * 4, b) ==
               key)) {
        table.next[row] = slot.head;
        table.slots[s] = Slot{static_cast<int32_t>(row), tag};
        break;
      }
      s = (s + 1) & table.mask;
    }
  }
}

void SignatureIndex::RebuildTables(size_t capacity_rows) {
  size_t cap = 64;
  while (cap < capacity_rows * 4) cap <<= 1;
  bands_.assign(static_cast<size_t>(config_.ann_bands), BandTable{});
  for (BandTable& table : bands_) {
    table.slots.assign(cap, Slot{});
    // Growth triggers before row cap/2, so next[] sized cap always covers
    // every row inserted between rebuilds.
    table.next.assign(cap, -1);
    table.mask = static_cast<uint32_t>(cap - 1);
  }
  hash4_.clear();
  hash4_.reserve(capacity_rows * 4);
  for (size_t row = 0; row < num_records_; ++row) {
    uint64_t masked[4];
    MaskHash(rows_[row]->sig.hash, config_.signature_bits, masked);
    hash4_.insert(hash4_.end(), masked, masked + 4);
  }
  const bool tag_is_key = config_.signature_bits / config_.ann_bands <= 32;
  for (size_t row = 0; row < num_records_; ++row) {
    const uint64_t* hash = hash4_.data() + row * 4;
    for (int b = 0; b < config_.ann_bands; ++b) {
      BandTable& table = bands_[b];
      const uint64_t key = BandKey(hash, b);
      const uint32_t tag = static_cast<uint32_t>(key);
      size_t s = cobra::MixHash(key) & table.mask;
      while (true) {
        const Slot slot = table.slots[s];
        if (slot.head < 0) {
          table.slots[s] = Slot{static_cast<int32_t>(row), tag};
          table.next[row] = -1;
          break;
        }
        if (slot.tag == tag &&
            (tag_is_key ||
             BandKey(hash4_.data() + static_cast<size_t>(slot.head) * 4, b) ==
                 key)) {
          table.next[row] = slot.head;
          table.slots[s] = Slot{static_cast<int32_t>(row), tag};
          break;
        }
        s = (s + 1) & table.mask;
      }
    }
  }
}

uint32_t SignatureIndex::HashDistance(const sk::SignatureKernelOps& ops,
                                      const uint64_t* masked_query,
                                      size_t i) const {
  // hash4_ rows are pre-masked, so one SIMD call covers every prefix width.
  return ops.Hamming256(masked_query, hash4_.data() + i * 4);
}

void SignatureIndex::ConsiderRanked(const sk::SignatureKernelOps& ops,
                                    uint32_t ham, const uint8_t* sketch,
                                    size_t i, uint32_t max_hamming, size_t k,
                                    std::vector<Neighbor>* heap) const {
  if (ham > max_hamming) return;
  // heap front is the current worst (max-heap under NeighborBefore).
  if (heap->size() == k && ham > heap->front().hamming) return;
  const vision::SignatureRecord& rec = record(i);
  Neighbor cand{ham, ops.L2Sq32(sketch, rec.sig.sketch), &rec};
  if (heap->size() == k) {
    if (!NeighborBefore(cand, heap->front())) return;
    std::pop_heap(heap->begin(), heap->end(), NeighborBefore);
    heap->back() = cand;
  } else {
    heap->push_back(cand);
  }
  std::push_heap(heap->begin(), heap->end(), NeighborBefore);
}

void SignatureIndex::Consider(const sk::SignatureKernelOps& ops,
                              const uint64_t* masked_query,
                              const uint8_t* sketch, size_t i,
                              uint32_t max_hamming, size_t k,
                              std::vector<Neighbor>* heap) const {
  ConsiderRanked(ops, HashDistance(ops, masked_query, i), sketch, i,
                 max_hamming, k, heap);
}

std::vector<Neighbor> SignatureIndex::SearchSimilar(
    const vision::ShotSignature& query, size_t k,
    SimilaritySearchStats* stats) const {
  SimilaritySearchStats local;
  SimilaritySearchStats& st = stats != nullptr ? *stats : local;
  st = SimilaritySearchStats{};
  if (k == 0 || num_records_ == 0) return {};

  uint64_t masked_query[4];
  MaskHash(query.hash, config_.signature_bits, masked_query);
  const uint32_t threshold = config_.max_hamming;
  const int bands = config_.ann_bands;
  const int width = config_.signature_bits / bands;
  const int max_radius =
      std::min(static_cast<int>(threshold / static_cast<uint32_t>(bands)),
               width);

  // If the enumeration would probe at least one key per record, the scan
  // is cheaper and just as exact.
  double probe_estimate = 0.0;
  for (int r = 0; r <= max_radius; ++r) {
    probe_estimate += bands * Binomial(width, r);
  }
  if (probe_estimate >= static_cast<double>(num_records_)) {
    st.exhaustive_fallback = true;
    return SearchSimilarExhaustive(query, k);
  }

  RowSet seen(512);
  std::vector<Neighbor> heap;
  heap.reserve(k);
  const sk::SignatureKernelOps& ops = sk::Ops();
  // Per-radius staged scratch (band-major order — the same visit order as
  // the naive nested loop). One code chased at a time serializes a cache
  // miss per probe; staging a whole radius keeps many misses in flight:
  // hash every code and prefetch its slot, then probe, then walk chains
  // with each candidate's hash-cache line prefetched ahead of the
  // distance pass.
  std::vector<std::pair<int, uint64_t>> probes;
  std::vector<std::pair<int, int32_t>> heads;
  std::vector<int32_t> cands;
  std::vector<uint64_t> gathered;
  std::vector<uint32_t> dist;
  probes.reserve(512);
  heads.reserve(512);
  cands.reserve(1024);
  for (int r = 0; r <= max_radius; ++r) {
    st.max_radius = r;
    probes.clear();
    for (int b = 0; b < bands; ++b) {
      const uint64_t key = BandKey(masked_query, b);
      ForEachFlip(key, width, r, 0,
                  [&](uint64_t code) { probes.emplace_back(b, code); });
    }
    st.probes += probes.size();
    // Probe every staged code, issuing the slot prefetch kLookahead codes
    // ahead so the table misses stay overlapped instead of serialized.
    constexpr size_t kLookahead = 16;
    const size_t lead = std::min(kLookahead, probes.size());
    for (size_t p = 0; p < lead; ++p) {
      const BandTable& table = bands_[probes[p].first];
      __builtin_prefetch(
          &table.slots[cobra::MixHash(probes[p].second) & table.mask]);
    }
    heads.clear();
    for (size_t p = 0; p < probes.size(); ++p) {
      if (p + kLookahead < probes.size()) {
        const auto& [nb, ncode] = probes[p + kLookahead];
        const BandTable& ntable = bands_[nb];
        __builtin_prefetch(&ntable.slots[cobra::MixHash(ncode) & ntable.mask]);
      }
      const auto& [b, code] = probes[p];
      const int32_t head = FindChain(bands_[b], b, code);
      if (head < 0) continue;
      __builtin_prefetch(&bands_[b].next[static_cast<size_t>(head)]);
      __builtin_prefetch(hash4_.data() + static_cast<size_t>(head) * 4);
      heads.emplace_back(b, head);
    }
    cands.clear();
    {
      // Chains average ~2 rows at corpus scale, and walking them one at a
      // time costs a dependent next[] miss per non-head row. A W-way
      // round-robin cursor walks many chains at once so those misses
      // overlap; the candidate *set* is unaffected (dedup below).
      constexpr size_t kWays = 16;
      const BandTable* tab[kWays];
      int32_t cur[kWays];
      size_t active = 0, next_head = 0;
      while (active < kWays && next_head < heads.size()) {
        tab[active] = &bands_[heads[next_head].first];
        cur[active] = heads[next_head].second;
        ++active;
        ++next_head;
      }
      while (active > 0) {
        for (size_t w = 0; w < active;) {
          const int32_t i = cur[w];
          if (seen.Insert(i)) {
            __builtin_prefetch(hash4_.data() + static_cast<size_t>(i) * 4);
            cands.push_back(i);
          }
          const int32_t nx = tab[w]->next[static_cast<size_t>(i)];
          if (nx >= 0) {
            __builtin_prefetch(&tab[w]->next[static_cast<size_t>(nx)]);
            cur[w] = nx;
            ++w;
          } else if (next_head < heads.size()) {
            tab[w] = &bands_[heads[next_head].first];
            cur[w] = heads[next_head].second;
            ++next_head;
            ++w;
          } else {
            --active;
            cur[w] = cur[active];
            tab[w] = tab[active];
          }
        }
      }
    }
    st.candidates += cands.size();
    // Gather the candidates' (prefetched) hash rows into one contiguous
    // block and rank them with a single SIMD batch call — identical
    // distances to per-row Hamming256, the tier property tests sweep both.
    gathered.resize(cands.size() * 4);
    dist.resize(cands.size());
    for (size_t c = 0; c < cands.size(); ++c) {
      std::memcpy(gathered.data() + c * 4,
                  hash4_.data() + static_cast<size_t>(cands[c]) * 4, 32);
    }
    ops.Hamming256Batch(masked_query,
                        reinterpret_cast<const uint8_t*>(gathered.data()), 32,
                        cands.size(), dist.data());
    for (size_t c = 0; c < cands.size(); ++c) {
      ConsiderRanked(ops, dist[c], query.sketch,
                     static_cast<size_t>(cands[c]), threshold, k, &heap);
    }
    // Every unseen record disagrees by > r bits on every band, so its
    // total distance is at least bands·(r+1). Strict inequality: an equal
    // Hamming distance could still win on the sketch.
    if (heap.size() == k &&
        heap.front().hamming <
            static_cast<uint32_t>(bands) * static_cast<uint32_t>(r + 1)) {
      break;
    }
  }
  std::sort(heap.begin(), heap.end(), NeighborBefore);
  return heap;
}

std::vector<Neighbor> SignatureIndex::SearchSimilarExhaustive(
    const vision::ShotSignature& query, size_t k) const {
  if (k == 0 || num_records_ == 0) return {};
  uint64_t masked_query[4];
  MaskHash(query.hash, config_.signature_bits, masked_query);
  const uint32_t threshold = config_.max_hamming;

  std::vector<Neighbor> heap;
  heap.reserve(k);
  std::vector<uint32_t> distances;
  if (config_.signature_bits == 256) {
    // Fast path: SIMD batch Hamming straight over the record chunks (the
    // mmap'd layout), exact re-rank only for in-threshold rows.
    for (const Chunk& c : chunks_) {
      distances.resize(c.count);
      sk::Ops().Hamming256Batch(
          masked_query, reinterpret_cast<const uint8_t*>(c.data->sig.hash),
          sizeof(vision::SignatureRecord), c.count, distances.data());
      for (size_t j = 0; j < c.count; ++j) {
        if (distances[j] > threshold) continue;
        if (heap.size() == k && distances[j] > heap.front().hamming) continue;
        const vision::SignatureRecord& rec = c.data[j];
        Neighbor cand{distances[j],
                      sk::Ops().L2Sq32(query.sketch, rec.sig.sketch), &rec};
        if (heap.size() == k) {
          if (!NeighborBefore(cand, heap.front())) continue;
          std::pop_heap(heap.begin(), heap.end(), NeighborBefore);
          heap.back() = cand;
        } else {
          heap.push_back(cand);
        }
        std::push_heap(heap.begin(), heap.end(), NeighborBefore);
      }
    }
  } else {
    const sk::SignatureKernelOps& ops = sk::Ops();
    for (size_t i = 0; i < num_records_; ++i) {
      Consider(ops, masked_query, query.sketch, i, threshold, k, &heap);
    }
  }
  std::sort(heap.begin(), heap.end(), NeighborBefore);
  return heap;
}

std::vector<SignatureIndex::DuplicatePair> SignatureIndex::FindNearDuplicates(
    uint32_t max_hamming) const {
  std::vector<DuplicatePair> out;
  if (num_records_ < 2) return out;
  const int bands = config_.ann_bands;
  const int width = config_.signature_bits / bands;
  const int max_radius = std::min(
      static_cast<int>(max_hamming / static_cast<uint32_t>(bands)), width);
  double probe_estimate = 0.0;
  for (int r = 0; r <= max_radius; ++r) {
    probe_estimate += bands * Binomial(width, r);
  }
  const bool enumerate =
      probe_estimate < static_cast<double>(num_records_);

  // Epoch-marked seen array: O(1) reset between source records.
  std::vector<uint32_t> mark(num_records_, 0);
  uint32_t epoch = 0;
  const sk::SignatureKernelOps& ops = sk::Ops();
  for (size_t i = 0; i < num_records_; ++i) {
    ++epoch;
    // hash4_ rows are already masked to the signature_bits prefix.
    const uint64_t* masked = hash4_.data() + i * 4;
    const auto consider_pair = [&](size_t j) {
      if (j >= i || mark[j] == epoch) return;
      mark[j] = epoch;
      const uint32_t ham = HashDistance(ops, masked, j);
      if (ham > max_hamming) return;
      const vision::SignatureRecord& a = record(j);
      const vision::SignatureRecord& b = record(i);
      DuplicatePair pair;
      pair.hamming = ham;
      pair.l2sq = ops.L2Sq32(record(i).sig.sketch, a.sig.sketch);
      // Present each pair in record order regardless of insertion order.
      const bool a_first =
          a.video_id != b.video_id ? a.video_id < b.video_id
          : a.begin != b.begin     ? a.begin < b.begin
                                   : a.end <= b.end;
      pair.a = a_first ? &a : &b;
      pair.b = a_first ? &b : &a;
      out.push_back(pair);
    };
    if (enumerate) {
      for (int r = 0; r <= max_radius; ++r) {
        for (int b = 0; b < bands; ++b) {
          const uint64_t key = BandKey(masked, b);
          ForEachFlip(key, width, r, 0, [&](uint64_t code) {
            for (int32_t c = FindChain(bands_[b], b, code); c >= 0;
                 c = bands_[b].next[static_cast<size_t>(c)]) {
              consider_pair(static_cast<size_t>(c));
            }
          });
        }
      }
    } else {
      for (size_t j = 0; j < i; ++j) consider_pair(j);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const DuplicatePair& x, const DuplicatePair& y) {
              if (x.a->video_id != y.a->video_id) {
                return x.a->video_id < y.a->video_id;
              }
              if (x.a->begin != y.a->begin) return x.a->begin < y.a->begin;
              if (x.b->video_id != y.b->video_id) {
                return x.b->video_id < y.b->video_id;
              }
              return x.b->begin < y.b->begin;
            });
  return out;
}

const vision::SignatureRecord* SignatureIndex::FindShot(int64_t video_id,
                                                        int64_t frame) const {
  for (const Chunk& c : chunks_) {
    for (size_t j = 0; j < c.count; ++j) {
      const vision::SignatureRecord& rec = c.data[j];
      if (rec.video_id == video_id && rec.begin <= frame && frame <= rec.end) {
        return &rec;
      }
    }
  }
  return nullptr;
}

uint32_t SignatureIndex::HammingLowerBound(
    const vision::ShotSignature& query) const {
  uint64_t masked[4];
  MaskHash(query.hash, config_.signature_bits, masked);
  uint32_t missing = 0;
  for (int b = 0; b < config_.ann_bands; ++b) {
    if (FindChain(bands_[b], b, BandKey(masked, b)) < 0) ++missing;
  }
  return missing;
}

}  // namespace cobra::engine::similarity
