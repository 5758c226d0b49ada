// Zero-copy batch arena: a ref-counted, epoch-recycled slab of immutable
// records shared by every consumer of a sealed batch.
//
// The single producer appends records into the currently open segment (one
// move/copy per record, total), seals it when a batch is full, and hands the
// resulting Span — a (segment, begin, end) view, not a copy — to N
// concurrent readers. Each reader releases the span when done; the last
// release recycles the segment: its epoch is bumped, the records are
// destroyed, and the slab (with its grown capacity) returns to the free
// list for the producer to refill. This replaces the O(consumers) per-batch
// record fan-out copy with O(1) and lets the producer fill the next segment
// while readers drain sealed ones (pipelined dispatch, see
// abv::EvalEngine).
//
// Threading contract:
//   - append/pending/seal: producer thread only.
//   - release: any reader thread, exactly once per reader counted at seal.
//   - The recycle path (last release) and segment reuse synchronize through
//     the arena mutex, so a refilled segment never races a stale reader.
//   - Span contents are immutable and valid until the LAST release; anyone
//     keeping data beyond that point (e.g. failure witnesses) must copy it
//     out of the slab before releasing.
//   - stats() requires quiescence (no concurrent append/release), e.g.
//     after the consumers joined.
#ifndef REPRO_SUPPORT_BATCH_ARENA_H_
#define REPRO_SUPPORT_BATCH_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace repro::support {

template <typename T>
class BatchArena {
 public:
  struct Stats {
    uint64_t records = 0;             // appended over the arena's lifetime
    uint64_t segments_sealed = 0;     // batches handed to readers
    uint64_t segments_allocated = 0;  // distinct slabs ever created
    uint64_t segments_recycled = 0;   // slabs returned by a last release
  };

  // Read-only view over one sealed segment: records [begin, end). Cheap to
  // copy; all copies refer to the same underlying slab and together consume
  // the reader count given to seal().
  class Span {
   public:
    Span() = default;

    const T* data() const { return segment_->records.data() + begin_; }
    const T* begin() const { return data(); }
    const T* end() const { return data() + size(); }
    size_t size() const { return end_ - begin_; }
    bool empty() const { return segment_ == nullptr || begin_ == end_; }
    // Recycle generation of the backing slab at seal time; a debugging aid
    // for use-after-release detection.
    uint64_t epoch() const { return epoch_; }

   private:
    friend class BatchArena;
    Span(typename BatchArena::Segment* segment, size_t begin, size_t end)
        : segment_(segment), begin_(begin), end_(end),
          epoch_(segment->epoch) {}

    typename BatchArena::Segment* segment_ = nullptr;
    size_t begin_ = 0;
    size_t end_ = 0;
    uint64_t epoch_ = 0;
  };

  // `reserve` pre-sizes every new slab (records per segment, typically the
  // batch size) so steady state appends never reallocate.
  explicit BatchArena(size_t reserve = 0) : reserve_(reserve) {}

  BatchArena(const BatchArena&) = delete;
  BatchArena& operator=(const BatchArena&) = delete;

  // Appends one record to the open segment (producer only).
  void append(T record) {
    if (open_ == nullptr) open_ = acquire_segment();
    open_->records.push_back(std::move(record));
    ++stats_.records;
  }

  // Records currently buffered in the open (unsealed) segment.
  size_t pending() const {
    return open_ != nullptr ? open_->records.size() : 0;
  }

  // Seals the open segment for `readers` concurrent consumers and returns
  // its span; an empty open segment yields an empty span and seals nothing.
  // The producer may immediately append again (a fresh slab is opened).
  Span seal(uint32_t readers) {
    if (open_ == nullptr || open_->records.empty()) return Span();
    Segment* segment = open_;
    open_ = nullptr;
    segment->readers.store(readers, std::memory_order_release);
    ++stats_.segments_sealed;
    return Span(segment, 0, segment->records.size());
  }

  // One call per reader counted at seal(). Returns true when this was the
  // last outstanding reader: the segment is then recycled (epoch bumped,
  // records destroyed, slab capacity kept) and every pointer into the span
  // is dead. Releasing an empty span is a no-op returning false.
  bool release(const Span& span) {
    Segment* segment = span.segment_;
    if (segment == nullptr) return false;
    if (segment->readers.fetch_sub(1, std::memory_order_acq_rel) != 1) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++segment->epoch;
    segment->records.clear();
    free_.push_back(segment);
    ++stats_.segments_recycled;
    return true;
  }

  Stats stats() const { return stats_; }

 private:
  struct Segment {
    std::vector<T> records;
    uint64_t epoch = 0;  // bumped on every recycle (under the arena mutex)
    std::atomic<uint32_t> readers{0};
  };

  Segment* acquire_segment() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        Segment* segment = free_.back();
        free_.pop_back();
        return segment;
      }
    }
    // segments_ is producer-only; readers never touch the owner vector.
    segments_.push_back(std::make_unique<Segment>());
    segments_.back()->records.reserve(reserve_);
    ++stats_.segments_allocated;
    return segments_.back().get();
  }

  const size_t reserve_;
  Segment* open_ = nullptr;                         // producer only
  std::vector<std::unique_ptr<Segment>> segments_;  // owns every slab
  std::mutex mu_;                                   // guards free_ + recycle
  std::vector<Segment*> free_;
  Stats stats_;  // records/sealed/allocated: producer; recycled: under mu_
};

}  // namespace repro::support

#endif  // REPRO_SUPPORT_BATCH_ARENA_H_
