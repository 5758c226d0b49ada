// Zero-copy checker ValueContext over a tlm::Snapshot.
//
// One context is built per evaluation point and shared read-only by every
// checker sampling that instant — the TLM engine builds it over a record
// held in the batch arena, the RTL environment over the per-edge sample
// snapshot. The context only borrows the snapshot; witness_values() is the
// escape hatch for data that must outlive it: it materializes a deep copy
// (names and values, no pointers into the snapshot) exactly once and hands
// out shared ownership, so failure-witness rings stay valid after the
// arena recycles the backing segment.
#ifndef REPRO_ABV_SNAPSHOT_CONTEXT_H_
#define REPRO_ABV_SNAPSHOT_CONTEXT_H_

#include <memory>
#include <string_view>

#include "checker/checker.h"
#include "tlm/transaction.h"

namespace repro::abv {

class ObservablesContext : public checker::ValueContext {
 public:
  explicit ObservablesContext(const tlm::Snapshot& values) : values_(values) {}

  // Fails fast (with the observable's name) when the record does not carry
  // `name`; a silent garbage read would make verdicts meaningless.
  uint64_t value(std::string_view name) const override;
  bool has(std::string_view name) const override;

  // Materialized once per context and shared, so the checkers of one shard
  // remembering the same transaction all hold the same immutable snapshot.
  // The copy is deep: it stays valid after the batch arena recycles the
  // record this context was built over.
  std::shared_ptr<const checker::WitnessValues> witness_values() const override;

 private:
  const tlm::Snapshot& values_;
  mutable std::shared_ptr<const checker::WitnessValues> witness_cache_;
};

}  // namespace repro::abv

#endif  // REPRO_ABV_SNAPSHOT_CONTEXT_H_
