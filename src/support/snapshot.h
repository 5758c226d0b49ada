// One row of observable values: the preserved interface variables at one
// evaluation point (a settled RTL clock edge or a TLM transaction end).
//
// The key set is fixed per model and shared (one allocation per model, not
// per row); a row is one flat value vector. Every consumer reads values
// from this one type: checkers, the reference evaluator, witness rings,
// trace files and record logs. Lookup is a linear scan, which beats
// tree/hash containers for the ~10 observables a model exposes.
//
// Copy-assigning a row over one built on the same key table copies the
// values into the existing capacity and keeps the key-table pointer, so a
// reused row (a witness ring slot) allocates nothing and copies no names.
#ifndef REPRO_SUPPORT_SNAPSHOT_H_
#define REPRO_SUPPORT_SNAPSHOT_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace repro::support {

class Snapshot {
 public:
  using Keys = std::vector<std::string>;

  Snapshot() = default;
  explicit Snapshot(std::shared_ptr<const Keys> keys)
      : keys_(std::move(keys)), values_(keys_ ? keys_->size() : 0, 0) {}
  // A row over a fresh key table holding the names in the given order
  // (tests, tools and examples; models share one table across rows).
  // Aborts with the name when one is listed twice: lookups return the
  // first entry, so the second value could never be read.
  explicit Snapshot(
      const std::vector<std::pair<std::string, uint64_t>>& values) {
    auto keys = std::make_shared<Keys>();
    keys->reserve(values.size());
    values_.reserve(values.size());
    for (const auto& [name, value] : values) {
      if (std::find(keys->begin(), keys->end(), name) != keys->end()) {
        std::fprintf(stderr,
                     "fatal: signal '%s' listed twice in an observable row\n",
                     name.c_str());
        std::abort();
      }
      keys->push_back(name);
      values_.push_back(value);
    }
    keys_ = std::move(keys);
  }

  bool empty() const { return keys_ == nullptr; }
  size_t size() const { return keys_ ? keys_->size() : 0; }
  const Keys* keys() const { return keys_.get(); }

  // Writes `name`; aborts with the name when the key table lacks it.
  void set(std::string_view name, uint64_t value) {
    values_[index_of(name)] = value;
  }

  // Reads `name`; aborts with the name when the key table lacks it. A
  // silent garbage read would make verdicts meaningless, so this fails
  // fast in every build type.
  uint64_t value(std::string_view name) const {
    return values_[index_of(name)];
  }

  // Reads `name`, or nullopt when the key table lacks it.
  std::optional<uint64_t> get(std::string_view name) const {
    const size_t i = find(name);
    if (i == size()) return std::nullopt;
    return values_[i];
  }

  uint64_t at(size_t index) const { return values_[index]; }
  void set_at(size_t index, uint64_t value) { values_[index] = value; }

 private:
  // Position of `name` in the key table; size() when absent.
  size_t find(std::string_view name) const {
    if (!keys_) return 0;
    return static_cast<size_t>(std::find(keys_->begin(), keys_->end(), name) -
                               keys_->begin());
  }

  size_t index_of(std::string_view name) const {
    const size_t i = find(name);
    if (i < size()) return i;
    std::fprintf(stderr,
                 "fatal: signal '%.*s' not in the observable key table\n",
                 static_cast<int>(name.size()), name.data());
    std::abort();
  }

  std::shared_ptr<const Keys> keys_;
  std::vector<uint64_t> values_;
};

}  // namespace repro::support

#endif  // REPRO_SUPPORT_SNAPSHOT_H_
