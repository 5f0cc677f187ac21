#pragma once

/// \file similarity.h
/// `SignatureIndex`: a sublinear approximate-nearest-neighbor index over
/// perceptual shot signatures (vision/signature.h) whose answers are
/// *provably identical* to the retained exhaustive oracle.
///
/// Scheme: multi-index hashing (Norouzi et al.) over the 4×64-bit hash
/// words. The 256-bit hash is cut into `ann_bands` equal bands (default
/// 16 bands × 16 bits); each band gets an open-addressing table from band
/// key to the chain of records with that exact key. A query enumerates,
/// per band, every key within Hamming radius r of its own band key for
/// r = 0, 1, …, floor(max_hamming / bands); by the pigeonhole principle a
/// record within `max_hamming` total Hamming distance agrees with the
/// query to within radius floor(max_hamming/bands) on at least one band,
/// so the enumeration surfaces *every* qualifying record and an exact
/// re-rank (full Hamming + sketch L2, SIMD kernels) reproduces the oracle
/// ordering bit for bit. Two additional guards keep the fast path honest:
///   * early stop — after finishing radius r, any unseen record has total
///     distance ≥ bands·(r+1), so once the top-k is full and its worst
///     entry is *strictly* below that bound the remaining radii cannot
///     change the answer (ties must continue: the sketch breaks them);
///   * exhaustive fallback — if the enumeration would probe more keys
///     than there are records, the index just scans (still exact, and
///     never slower than the oracle by more than the candidate pass).
///
/// Result ordering is the total order (hamming, l2sq, video_id, begin,
/// end) — no insertion ordinals — so a partition of the records across
/// shards merges back to exactly the unsharded answer (the serving tier
/// relies on this).
///
/// Records are stored as immutable chunks: zero-copy spans into mmap'd
/// segment sections plus owned append chunks, so loading a durable
/// library never copies signature bytes.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/status.h"
#include "vision/signature.h"
#include "vision/signature_kernels.h"

namespace cobra::engine::similarity {

struct SignatureIndexConfig {
  /// Effective hash prefix in bits: 64, 128, 192 or 256. Bits past the
  /// prefix are ignored by every distance (index and oracle alike).
  int signature_bits = 256;
  /// Number of multi-index hash bands. Band width (signature_bits /
  /// ann_bands) must be 1–64 bits and divide 64 so bands never straddle
  /// hash words. Fewer, wider bands probe less but prune worse; 16×16-bit
  /// bands cover the default threshold at enumeration radius 1.
  int ann_bands = 16;
  /// Acceptance threshold: records farther than this (Hamming, over the
  /// signature_bits prefix) are not "similar" and never returned.
  uint32_t max_hamming = 31;
  /// Default result count for similarity queries that do not specify one
  /// (the `similar_to.k` query clause overrides per query).
  size_t rerank_k = 16;
};

/// One search result, ordered by (hamming, l2sq, video_id, begin, end).
struct Neighbor {
  uint32_t hamming = 0;
  uint32_t l2sq = 0;
  const vision::SignatureRecord* record = nullptr;
};

/// The total result order above; exposed so the serving frontend's
/// cross-shard candidate merge reproduces the single-index ranking exactly.
bool NeighborBefore(const Neighbor& a, const Neighbor& b);

/// Scalar distance key combining both components without ties between
/// distinct (hamming, l2sq) pairs: hamming·2²² + l2sq, exact in a double
/// (l2sq ≤ 32·255² < 2²²). SceneHit.similarity carries this value and the
/// serving tier's shard bounds are lower bounds on it.
inline double DistanceKey(uint32_t hamming, uint32_t l2sq) {
  return static_cast<double>(hamming) * 4194304.0 + static_cast<double>(l2sq);
}

/// Counters from one SearchSimilar call.
struct SimilaritySearchStats {
  size_t probes = 0;      ///< band-table key lookups
  size_t candidates = 0;  ///< records exact-reranked
  int max_radius = 0;     ///< deepest enumeration radius reached
  bool exhaustive_fallback = false;  ///< enumeration would beat the scan
};

class SignatureIndex {
 public:
  explicit SignatureIndex(SignatureIndexConfig config = {});

  /// Re-validates `config` and rebuilds the band tables over the records
  /// already added. InvalidArgument on malformed band geometry.
  Status SetConfig(const SignatureIndexConfig& config);
  const SignatureIndexConfig& config() const { return config_; }

  /// Appends owned copies of `records`.
  void AddRecords(const vision::SignatureRecord* records, size_t count);

  /// Appends a zero-copy view: the caller guarantees `records` outlives
  /// the index (mmap'd segment sections do — the reader is retained).
  void AddBaseChunk(const vision::SignatureRecord* records, size_t count);

  /// Sizes the band tables for `rows` records in all (rebuilding them at
  /// most once) so that adding up to that many inserts without regrowth.
  /// The adds reserve their own batch; a caller adding several batches
  /// reserves their total first. Results do not depend on reservations.
  void ReserveRows(size_t rows);

  size_t num_records() const { return num_records_; }
  const vision::SignatureRecord& record(size_t i) const;

  /// The owned (non-base) record spans starting at global row `from_row`,
  /// in order — the durable flush window. `from_row` earlier than the
  /// first owned row just yields every owned span.
  std::vector<std::pair<const vision::SignatureRecord*, size_t>> OwnedFrom(
      size_t from_row) const;

  /// Exact top-`k` records within config.max_hamming of `query`, via the
  /// band tables (see file comment). Bit-identical to the oracle below.
  std::vector<Neighbor> SearchSimilar(const vision::ShotSignature& query,
                                      size_t k,
                                      SimilaritySearchStats* stats = nullptr)
      const;

  /// The retained brute-force oracle: SIMD batch scan of every record,
  /// same threshold, same ordering.
  std::vector<Neighbor> SearchSimilarExhaustive(
      const vision::ShotSignature& query, size_t k) const;

  /// One cross-index near-duplicate pair (a precedes b in the record
  /// order (video_id, begin, end)).
  struct DuplicatePair {
    const vision::SignatureRecord* a = nullptr;
    const vision::SignatureRecord* b = nullptr;
    uint32_t hamming = 0;
    uint32_t l2sq = 0;
  };

  /// Batches the index against itself: every unordered record pair within
  /// `max_hamming`, found through the band tables (each record queries its
  /// own bands), sorted by (a.video, a.begin, b.video, b.begin). Exact.
  std::vector<DuplicatePair> FindNearDuplicates(uint32_t max_hamming) const;

  /// The record of the shot of `video_id` containing `frame`, or nullptr.
  const vision::SignatureRecord* FindShot(int64_t video_id,
                                          int64_t frame) const;

  /// Lower bound on the Hamming distance from `query` to *any* record:
  /// each band whose table lacks the query's exact band key contributes at
  /// least one differing bit to every record. Cheap (ann_bands probes);
  /// the serving tier turns this into a per-shard bound on DistanceKey.
  uint32_t HammingLowerBound(const vision::ShotSignature& query) const;

 private:
  struct Chunk {
    const vision::SignatureRecord* data = nullptr;
    size_t count = 0;
    size_t start = 0;   ///< global row of data[0]
    bool is_base = false;  ///< zero-copy view (not owned)
  };

  /// One open-addressing band table: slots_[s] is the head of the chain of
  /// records whose band key collides into slot s (or -1); next_[i] links
  /// record i to the previous record with the same band key. Each slot
  /// carries the low 32 bits of its chain's band key so probe verification
  /// stays inside the slot's own cache line (bands at most 32 bits wide —
  /// the common geometries — never touch the records at all; wider bands
  /// confirm tag matches against the hash cache).
  struct Slot {
    int32_t head = -1;
    uint32_t tag = 0;
  };
  struct BandTable {
    std::vector<Slot> slots;
    std::vector<int32_t> next;
    uint32_t mask = 0;
  };

  uint64_t BandKey(const uint64_t* hash, int band) const;
  /// Masked (signature_bits-prefix) Hamming distance query↔record i.
  /// `ops` is the caller's hoisted kernel table (the dispatch read is
  /// atomic and this runs once per candidate).
  uint32_t HashDistance(const vision::signature_kernels::SignatureKernelOps& ops,
                        const uint64_t* masked_query, size_t i) const;
  /// Inserts row `row` (< the reserved capacity) into every band table.
  void InsertIntoBands(size_t row);
  /// Resizes the tables for `capacity_rows` records (at most 25% load) and
  /// reinserts rows [0, num_records_).
  void RebuildTables(size_t capacity_rows);
  /// Chain head slot for `key` in `table`, or -1 if the key is absent.
  int32_t FindChain(const BandTable& table, int band, uint64_t key) const;
  /// Pushes record i (if within threshold) onto the top-k heap.
  void Consider(const vision::signature_kernels::SignatureKernelOps& ops,
                const uint64_t* masked_query, const uint8_t* sketch, size_t i,
                uint32_t max_hamming, size_t k,
                std::vector<Neighbor>* heap) const;
  /// Consider with the Hamming distance already computed (the staged probe
  /// loop batches distances over whole candidate sets).
  void ConsiderRanked(const vision::signature_kernels::SignatureKernelOps& ops,
                      uint32_t ham, const uint8_t* sketch, size_t i,
                      uint32_t max_hamming, size_t k,
                      std::vector<Neighbor>* heap) const;

  SignatureIndexConfig config_;
  std::vector<Chunk> chunks_;  ///< in insertion order (views and owned spans)
  std::vector<std::vector<vision::SignatureRecord>> owned_;
  size_t num_records_ = 0;
  std::vector<BandTable> bands_;
  /// Flat row → record pointer (chunk buffers are pointer-stable), so the
  /// candidate re-rank never binary-searches chunks_.
  std::vector<const vision::SignatureRecord*> rows_;
  /// Pre-masked hash words, 4 per row ([row·4 + word], signature_bits
  /// prefix applied at build time). The candidate Hamming re-rank and the
  /// wide-band key confirmations read this 32-byte-per-row array — L3
  /// resident even at 10⁶ records — instead of the scattered 96-byte
  /// records, which are only touched for in-threshold survivors.
  std::vector<uint64_t> hash4_;
};

}  // namespace cobra::engine::similarity
